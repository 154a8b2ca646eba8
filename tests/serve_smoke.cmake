# End-to-end smoke of the serve daemon against the real binary, run as a
# ctest: start `ddtr serve` in the background, submit the same small url
# study twice over the unix socket, and require the warm second run to
# execute ZERO simulations with byte-identical result records (the ISSUE's
# acceptance check, at the process level); then job table and clean
# shutdown (socket removed, cache file left warm).
#
# Invoked by CMakeLists.txt as:
#   cmake -DDDTR_CLI=<path-to-ddtr> -DWORK_DIR=<scratch-dir> -P serve_smoke.cmake

if(NOT DEFINED DDTR_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "serve_smoke.cmake needs -DDDTR_CLI=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(SOCKET "${WORK_DIR}/daemon.sock")
set(CACHE_DIR "${WORK_DIR}/cache")
set(SERVE_LOG "${WORK_DIR}/serve.out")
set(DAEMON_PID "")

# Fails the test after killing the background daemon (a FATAL_ERROR alone
# would leak it into the ctest runner).
function(fail msg)
  if(DAEMON_PID)
    execute_process(COMMAND kill ${DAEMON_PID} ERROR_QUIET)
  endif()
  if(EXISTS "${SERVE_LOG}")
    file(READ "${SERVE_LOG}" serve_log)
    message(FATAL_ERROR "${msg}\n--- daemon log ---\n${serve_log}")
  endif()
  message(FATAL_ERROR "${msg}")
endfunction()

function(run_cli expect_success out_var)
  execute_process(
      COMMAND ${DDTR_CLI} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(expect_success AND NOT result EQUAL 0)
    fail("ddtr ${ARGN} failed (exit ${result}):\n${output}\n${errout}")
  endif()
  if(NOT expect_success AND result EQUAL 0)
    fail("ddtr ${ARGN} unexpectedly succeeded:\n${output}\n${errout}")
  endif()
  set(${out_var} "${output}\n${errout}" PARENT_SCOPE)
endfunction()

# 1. Start the daemon detached (output to a file so this script does not
#    block on the pipe) and wait for the socket to appear.
execute_process(
    COMMAND sh -c "'${DDTR_CLI}' serve --socket '${SOCKET}' --cache-dir '${CACHE_DIR}' --jobs 2 > '${SERVE_LOG}' 2>&1 & echo $!"
    OUTPUT_VARIABLE DAEMON_PID
    OUTPUT_STRIP_TRAILING_WHITESPACE)
foreach(attempt RANGE 60)
  if(EXISTS "${SOCKET}")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
endforeach()
if(NOT EXISTS "${SOCKET}")
  fail("daemon never bound ${SOCKET}")
endif()

# 2. Cold submission: executes simulations, stores records, writes the
#    result records to a file.
run_cli(TRUE cold_out
        submit --socket ${SOCKET} --app url --scale 0.05
        --log ${WORK_DIR}/cold.records)
if(NOT cold_out MATCHES "persistent cache: +loaded 0, stored [1-9]")
  fail("cold submission did not store cache records:\n${cold_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/cold.records")
  fail("cold submission did not write its records file")
endif()

# 3. THE acceptance check: the identical resubmission must report zero
#    executed simulations and byte-identical records.
run_cli(TRUE warm_out
        submit --socket ${SOCKET} --app url --scale 0.05
        --log ${WORK_DIR}/warm.records)
if(NOT warm_out MATCHES "executed simulations: +0 of")
  fail("warm resubmission executed simulations:\n${warm_out}")
endif()
file(READ "${WORK_DIR}/cold.records" cold_bytes)
file(READ "${WORK_DIR}/warm.records" warm_bytes)
if(NOT cold_bytes STREQUAL warm_bytes)
  fail("warm resubmission records differ from the cold run's")
endif()

# 4. The job table knows both submissions.
run_cli(TRUE stats_out stats --socket ${SOCKET})
if(NOT stats_out MATCHES "jobs submitted +2 *\n"
   OR NOT stats_out MATCHES "\n1 +url +done "
   OR NOT stats_out MATCHES "\n2 +url +done ")
  fail("stats does not list 2 done url jobs:\n${stats_out}")
endif()

# 5. Clean shutdown: socket removed, the runs' cache file on disk.
run_cli(TRUE bye_out shutdown --socket ${SOCKET})
foreach(attempt RANGE 60)
  if(NOT EXISTS "${SOCKET}")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
endforeach()
if(EXISTS "${SOCKET}")
  fail("daemon did not remove its socket file on shutdown")
endif()
if(NOT EXISTS "${CACHE_DIR}/sim_cache.ddtr")
  fail("daemon left no cache file after its runs")
endif()

# 6. The cache file is genuinely warm: a plain (daemon-less) explore
#    over the same directory replays everything.
run_cli(TRUE replay_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR})
if(NOT replay_out MATCHES "executed simulations: +0 ")
  fail("explore over the daemon's cache file re-executed:\n${replay_out}")
endif()

message(STATUS "serve_smoke: daemon round trip passed")
