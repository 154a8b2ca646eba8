# Byte identity of result records between two ddtr builds: for the four
# built-in apps x {default step 1, --greedy} x --jobs {1, 2}, runs
#   ddtr explore --app A [--greedy] --jobs J --scale 0.05 --log F
# on both binaries and compares the two logs byte for byte (16 pairs). A
# change that must not move a number (a refactor, a host-side speedup)
# passes it against the build of its base. Only a kDdtAccountingVersion
# or energy::kEnergyModelVersion bump may make the records differ.
#
#   cmake -DBASE_CLI=<base ddtr> -DHEAD_CLI=<head ddtr> -DWORK_DIR=<dir> \
#         -P records_identity.cmake

foreach(var BASE_CLI HEAD_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
        "records_identity.cmake needs -DBASE_CLI=... -DHEAD_CLI=... "
        "-DWORK_DIR=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Writes `log` with one explore run of `cli`; any failure is fatal.
function(explore_to cli log app greedy jobs)
  set(step1)
  if(greedy)
    set(step1 --greedy)
  endif()
  execute_process(
      COMMAND ${cli} explore --app ${app} ${step1} --jobs ${jobs}
              --scale 0.05 --log ${log}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
        "${cli} explore --app ${app} ${step1} --jobs ${jobs} failed "
        "(exit ${result}):\n${output}\n${errout}")
  endif()
endfunction()

set(pairs 0)
set(differing)
foreach(app route url ipchains drr)
  foreach(greedy FALSE TRUE)
    foreach(jobs 1 2)
      set(tag "${app}")
      if(greedy)
        string(APPEND tag "_greedy")
      endif()
      string(APPEND tag "_jobs${jobs}")
      explore_to(${BASE_CLI} "${WORK_DIR}/base_${tag}.log" ${app} ${greedy}
                 ${jobs})
      explore_to(${HEAD_CLI} "${WORK_DIR}/head_${tag}.log" ${app} ${greedy}
                 ${jobs})
      execute_process(
          COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${WORK_DIR}/base_${tag}.log" "${WORK_DIR}/head_${tag}.log"
          RESULT_VARIABLE same)
      math(EXPR pairs "${pairs} + 1")
      if(same EQUAL 0)
        message(STATUS "identical: ${tag}")
      else()
        message(STATUS "DIFFERS:   ${tag}")
        list(APPEND differing ${tag})
      endif()
    endforeach()
  endforeach()
endforeach()

list(LENGTH differing n_differing)
math(EXPR n_identical "${pairs} - ${n_differing}")
if(n_differing GREATER 0)
  message(FATAL_ERROR
      "records_identity: ${n_identical} of ${pairs} logs byte-identical; "
      "differing: ${differing} (logs kept in ${WORK_DIR})")
endif()
message(STATUS "records_identity: ${n_identical} of ${pairs} logs "
               "byte-identical")
