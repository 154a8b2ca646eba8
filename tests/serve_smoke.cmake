# End-to-end smoke of the serve daemon against the real binary, run as a
# ctest: start a traced `ddtr serve` in the background, submit the same
# small url study twice over the unix socket, and require the warm second
# run to execute ZERO simulations with byte-identical result records;
# then the job table, a SIGTERM drain (socket removed, a valid trace
# written, cache file left warm and verified), a fresh daemon on the same
# cache directory whose first submit executes nothing, and a daemonless
# explore over that directory that replays everything and prints, byte for
# byte, the report that daemon sent (the daemon-vs-CLI oracle).
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
set(SERVE_TRACE "${WORK_DIR}/serve_trace.json")
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
  set(${out_var}_stdout "${output}" PARENT_SCOPE)
endfunction()

# Starts a daemon on ${SOCKET} over ${CACHE_DIR} detached (output to
# ${SERVE_LOG}, so this script does not block on the pipe), with any
# extra serve flags, and waits for the socket to appear. The daemon runs
# under coreutils `timeout`, so it cannot outlive a killed or hung script:
# after DAEMON_BOUND_S (far above this script's own run time) it gets a
# SIGTERM, and a SIGKILL 30 s after any SIGTERM it has not exited on.
# DAEMON_PID is timeout's pid; timeout forwards SIGTERM to the daemon.
set(DAEMON_BOUND_S 300)
macro(start_daemon)
  execute_process(
      COMMAND sh -c "timeout -k 30 ${DAEMON_BOUND_S} '${DDTR_CLI}' serve \
--socket '${SOCKET}' --cache-dir '${CACHE_DIR}' --jobs 2 ${ARGN} \
> '${SERVE_LOG}' 2>&1 & echo $!"
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
endmacro()

# Waits until the daemon has removed its socket file.
function(wait_socket_gone)
  foreach(attempt RANGE 60)
    if(NOT EXISTS "${SOCKET}")
      return()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
  endforeach()
  fail("daemon did not remove its socket file on shutdown")
endfunction()

# 1. Start a traced daemon.
start_daemon("--trace '${SERVE_TRACE}'")

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
if(NOT warm_out MATCHES "executed simulations: +0 \\(cache hit rate")
  fail("warm resubmission executed simulations:\n${warm_out}")
endif()
file(READ "${WORK_DIR}/cold.records" cold_bytes)
file(READ "${WORK_DIR}/warm.records" warm_bytes)
if(NOT cold_bytes STREQUAL warm_bytes)
  fail("warm resubmission records differ from the cold run's")
endif()

# 4. The job table knows both submissions, and the daemon holds the
#    study's traces warm.
run_cli(TRUE stats_out stats --socket ${SOCKET})
if(NOT stats_out MATCHES "jobs submitted +2 *\n"
   OR NOT stats_out MATCHES "\n1 +url +done "
   OR NOT stats_out MATCHES "\n2 +url +done "
   OR NOT stats_out MATCHES "cache hits"
   OR NOT stats_out MATCHES "\nwarm traces +[1-9]")
  fail("stats does not list 2 done url jobs, the cache hits and the warm "
       "traces:\n${stats_out}")
endif()

# 5. SIGTERM drains the daemon: socket removed, the trace written on the
#    way out (its log line is the last the daemon prints) and valid, the
#    runs' cache file on disk and intact.
execute_process(COMMAND kill -TERM ${DAEMON_PID})
wait_socket_gone()
foreach(attempt RANGE 60)
  file(READ "${SERVE_LOG}" serve_log)
  if(serve_log MATCHES "wrote [0-9]+ trace events")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
endforeach()
if(NOT serve_log MATCHES "wrote [0-9]+ trace events")
  fail("daemon did not write its trace after SIGTERM")
endif()
set(DAEMON_PID "")
run_cli(TRUE tracecheck_out tracecheck ${SERVE_TRACE})
if(NOT tracecheck_out MATCHES ": OK")
  fail("daemon trace is invalid:\n${tracecheck_out}")
endif()
if(NOT EXISTS "${CACHE_DIR}/sim_cache.ddtr")
  fail("daemon left no cache file after its runs")
endif()
run_cli(TRUE verify_out cache verify ${CACHE_DIR})
if(NOT verify_out MATCHES "cache verify: OK")
  fail("cache verify failed on the daemon's cache dir:\n${verify_out}")
endif()

# 6. A fresh daemon over the same cache dir starts warm: its first
#    submission already executes nothing, with byte-identical records. A
#    --log file it cannot write is an error naming it (exit 1). SIGTERM
#    stops the daemon.
start_daemon()
run_cli(TRUE restart_out
        submit --socket ${SOCKET} --app url --scale 0.05
        --log ${WORK_DIR}/restart.records)
if(NOT restart_out MATCHES "executed simulations: +0 \\(cache hit rate")
  fail("a restarted daemon re-executed simulations:\n${restart_out}")
endif()
file(READ "${WORK_DIR}/restart.records" restart_bytes)
if(NOT cold_bytes STREQUAL restart_bytes)
  fail("the restarted daemon's records differ from the cold run's")
endif()
if(NOT restart_out_stdout MATCHES
   "^job [0-9]+ \\(URL\\):\n(.*)wrote result records to ")
  fail("submit output lacks its job line or log line:\n${restart_out}")
endif()
set(daemon_report "${CMAKE_MATCH_1}")
execute_process(
    COMMAND ${DDTR_CLI} submit --socket ${SOCKET} --app url --scale 0.05
            --log ${WORK_DIR}/no_such_dir/x.records
    RESULT_VARIABLE bad_log_result
    OUTPUT_VARIABLE bad_log_out
    ERROR_VARIABLE bad_log_err)
if(NOT bad_log_result EQUAL 1
   OR NOT bad_log_err MATCHES
      "error: cannot write ${WORK_DIR}/no_such_dir/x.records\n"
   OR bad_log_out MATCHES "wrote ")
  fail("an unwritable submit --log was not an error (exit "
       "${bad_log_result}):\n${bad_log_out}\n${bad_log_err}")
endif()
execute_process(COMMAND kill -TERM ${DAEMON_PID})
wait_socket_gone()
set(DAEMON_PID "")

# 7. The cache file is genuinely warm: a plain (daemon-less) explore
#    over the same directory replays everything, and its stdout is the
#    report the restarted daemon sent for the same study, byte for byte.
run_cli(TRUE replay_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR})
if(NOT replay_out MATCHES "executed simulations: +0 \\(cache hit rate")
  fail("explore over the daemon's cache file re-executed:\n${replay_out}")
endif()
if(NOT replay_out_stdout STREQUAL daemon_report)
  fail("the daemon's report differs from explore's over the same cache "
       "dir:\n--- submit ---\n${daemon_report}--- explore ---\n"
       "${replay_out_stdout}")
endif()

message(STATUS "serve_smoke: daemon round trip passed")
