# Byte identity of result records between two ddtr builds: for the four
# built-in apps x {default step 1, --greedy} x --jobs {1, 2} x --scale
# {0.05, 1}, runs
#   ddtr explore --app A [--greedy] --jobs J --scale S --log F
# on both binaries and compares the two logs byte for byte (32 pairs), and
# the two reports on stdout too (the Pareto list and the per-metric table
# appear only there), less their last line, `wrote N records to F`, whose
# path differs between the builds.
# Scale 1 is the paper's trace length, where destinations and URLs repeat
# most, so the kernels' weighted replay (one lookup per distinct key,
# charged for every packet) is checked where it saves the most. A change
# that must not move a number (a refactor, a host-side speedup) passes it
# against the build of its base. Only a kDdtAccountingVersion or
# energy::kEnergyModelVersion bump may make the records differ.
#
# A second leg pins the persisted cache keys: the base CLI writes a
# --cache-dir per app at scale 0.05, and the head CLI's explore against
# it must print `executed simulations:  0`. Pass -DSKIP_CACHE_KEYS=ON when
# PersistentSimulationCache::kFormatVersion differs from the base, which
# retires every stored key.
#
#   cmake -DBASE_CLI=<base ddtr> -DHEAD_CLI=<head ddtr> -DWORK_DIR=<dir> \
#         [-DSKIP_CACHE_KEYS=ON] -P records_identity.cmake

foreach(var BASE_CLI HEAD_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
        "records_identity.cmake needs -DBASE_CLI=... -DHEAD_CLI=... "
        "-DWORK_DIR=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Writes `log` with one explore run of `cli`, and its stdout less the last
# line to `report`; any failure is fatal.
function(explore_to cli log report app greedy jobs scale)
  set(step1)
  if(greedy)
    set(step1 --greedy)
  endif()
  execute_process(
      COMMAND ${cli} explore --app ${app} ${step1} --jobs ${jobs}
              --scale ${scale} --log ${log}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
        "${cli} explore --app ${app} ${step1} --jobs ${jobs} "
        "--scale ${scale} failed "
        "(exit ${result}):\n${output}\n${errout}")
  endif()
  string(REGEX REPLACE "[^\n]*\n$" "" output "${output}")
  file(WRITE "${report}" "${output}")
endfunction()

# Sets `out` to whether files `a` and `b` are byte-identical.
function(files_equal out a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(differ EQUAL 0)
    set(${out} TRUE PARENT_SCOPE)
  else()
    set(${out} FALSE PARENT_SCOPE)
  endif()
endfunction()

set(pairs 0)
set(differing)
set(reports_differing)
foreach(scale 0.05 1)
  foreach(app route url ipchains drr)
    foreach(greedy FALSE TRUE)
      foreach(jobs 1 2)
        set(tag "${app}")
        if(greedy)
          string(APPEND tag "_greedy")
        endif()
        string(APPEND tag "_jobs${jobs}_scale${scale}")
        foreach(side base head)
          string(TOUPPER ${side} cli)
          explore_to(${${cli}_CLI} "${WORK_DIR}/${side}_${tag}.log"
                     "${WORK_DIR}/${side}_${tag}.report" ${app} ${greedy}
                     ${jobs} ${scale})
        endforeach()
        math(EXPR pairs "${pairs} + 1")
        files_equal(log_same "${WORK_DIR}/base_${tag}.log"
                    "${WORK_DIR}/head_${tag}.log")
        files_equal(report_same "${WORK_DIR}/base_${tag}.report"
                    "${WORK_DIR}/head_${tag}.report")
        if(NOT log_same)
          list(APPEND differing ${tag})
        endif()
        if(NOT report_same)
          list(APPEND reports_differing ${tag})
        endif()
        if(log_same AND report_same)
          message(STATUS "identical: ${tag}")
        else()
          message(STATUS "DIFFERS:   ${tag}")
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()

# Cache-key leg: the head must replay every record the base stored.
set(missed)
if(NOT SKIP_CACHE_KEYS)
  foreach(app route url ipchains drr)
    set(dir "${WORK_DIR}/cache_${app}")
    file(REMOVE_RECURSE "${dir}")
    foreach(cli ${BASE_CLI} ${HEAD_CLI})
      execute_process(
          COMMAND ${cli} explore --app ${app} --scale 0.05 --cache-dir ${dir}
          RESULT_VARIABLE result
          OUTPUT_VARIABLE output
          ERROR_VARIABLE errout)
      if(NOT result EQUAL 0)
        message(FATAL_ERROR
            "${cli} explore --app ${app} --scale 0.05 --cache-dir ${dir} "
            "failed (exit ${result}):\n${output}\n${errout}")
      endif()
    endforeach()
    # `output` is the head's report.
    if(output MATCHES "executed simulations:  0 ")
      message(STATUS "cache keys kept: ${app}")
    else()
      message(STATUS "CACHE MISS: ${app}")
      list(APPEND missed ${app})
    endif()
  endforeach()
endif()

list(LENGTH differing n_differing)
math(EXPR n_identical "${pairs} - ${n_differing}")
list(LENGTH reports_differing n_reports_differing)
math(EXPR n_reports_identical "${pairs} - ${n_reports_differing}")
if(n_differing GREATER 0 OR n_reports_differing GREATER 0)
  message(FATAL_ERROR
      "records_identity: ${n_identical} of ${pairs} logs and "
      "${n_reports_identical} of ${pairs} reports byte-identical; "
      "logs differing: ${differing}; reports differing: "
      "${reports_differing} (kept in ${WORK_DIR})")
endif()
if(missed)
  message(FATAL_ERROR
      "records_identity: the head executed simulations against the base's "
      "--cache-dir for: ${missed} (cache dirs kept in ${WORK_DIR})")
endif()
message(STATUS "records_identity: ${n_identical} of ${pairs} logs and "
               "${n_reports_identical} of ${pairs} reports byte-identical")
if(SKIP_CACHE_KEYS)
  message(STATUS "records_identity: cache-key leg skipped")
else()
  message(STATUS "records_identity: every app's base --cache-dir replayed "
                 "with 0 executed")
endif()
