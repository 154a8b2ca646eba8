# End-to-end smoke of the ddtr CLI, run as a ctest:
#   ddtr apps                                  -> lists the registry
#   ddtr explore --app url --scale 0.05 --log f -> writes a result log
#   ddtr pareto --log f                         -> post-processes it
# plus the flag contract every subcommand gets from the one command table
# in tools/ddtr_main.cc: unknown flags, missing or malformed or
# out-of-range values and stray positionals are usage errors (exit 2)
# naming the subcommand and the flag.
#
# Invoked by CMakeLists.txt as:
#   cmake -DDDTR_CLI=<path-to-ddtr> -DWORK_DIR=<scratch-dir> -P cli_smoke.cmake

if(NOT DEFINED DDTR_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "cli_smoke.cmake needs -DDDTR_CLI=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(LOG_FILE "${WORK_DIR}/url.log")

# Runs ddtr expecting a usage error: exit code 2 and output matching
# `pattern`; the output is left in `usage_error_out`.
function(expect_usage_error pattern)
  execute_process(
      COMMAND ${DDTR_CLI} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(NOT result EQUAL 2 OR NOT "${output}${errout}" MATCHES "${pattern}")
    message(FATAL_ERROR
        "ddtr ${ARGN}: expected exit 2 matching '${pattern}', got exit "
        "${result}:\n${output}\n${errout}")
  endif()
  set(usage_error_out "${output}${errout}" PARENT_SCOPE)
endfunction()

function(run_cli expect_success out_var)
  execute_process(
      COMMAND ${DDTR_CLI} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(expect_success AND NOT result EQUAL 0)
    message(FATAL_ERROR
        "ddtr ${ARGN} failed (exit ${result}):\n${output}\n${errout}")
  endif()
  if(NOT expect_success AND result EQUAL 0)
    message(FATAL_ERROR
        "ddtr ${ARGN} unexpectedly succeeded:\n${output}\n${errout}")
  endif()
  set(${out_var} "${output}\n${errout}" PARENT_SCOPE)
endfunction()

# 1. The registry listing names every built-in workload.
run_cli(TRUE apps_out apps)
foreach(app route url ipchains drr)
  if(NOT apps_out MATCHES "${app}")
    message(FATAL_ERROR "'ddtr apps' does not list '${app}':\n${apps_out}")
  endif()
endforeach()

# 2. Explore a registered workload end to end, writing a result log.
# Remove any log left by a previous ctest run first, so a regression that
# stops writing the file cannot pass against stale output.
file(REMOVE "${LOG_FILE}")
run_cli(TRUE explore_out
        explore --app url --scale 0.05 --log ${LOG_FILE})
if(NOT explore_out MATCHES "Pareto-optimal combinations")
  message(FATAL_ERROR "explore output lacks a Pareto set:\n${explore_out}")
endif()
if(NOT EXISTS "${LOG_FILE}")
  message(FATAL_ERROR "explore did not write ${LOG_FILE}")
endif()
# The kernel runs behind the executed records follow on the next line.
if(NOT explore_out MATCHES
   "executed simulations: +[0-9]+ [^\n]*\nkernel runs: +[0-9]+\n")
  message(FATAL_ERROR "explore output lacks kernel runs:\n${explore_out}")
endif()

# 3. Post-process the log (the paper's "log files -> post-processing").
run_cli(TRUE pareto_out pareto --log ${LOG_FILE})
if(NOT pareto_out MATCHES "Pareto-optimal points out of")
  message(FATAL_ERROR "pareto output unexpected:\n${pareto_out}")
endif()
# --app takes the registry name the log was explored with, although the
# records carry the display name ("URL"); an app the log lacks is an
# error naming the apps it holds.
run_cli(TRUE pareto_app_out pareto --log ${LOG_FILE} --app url)
if(NOT pareto_app_out MATCHES
   "[1-9][0-9]* Pareto-optimal points out of [1-9][0-9]* records")
  message(FATAL_ERROR "pareto --app url found no records:\n${pareto_app_out}")
endif()
run_cli(FALSE pareto_noapp_out pareto --log ${LOG_FILE} --app drr)
if(NOT pareto_noapp_out MATCHES "no record of app 'drr' .*holds: URL\\)")
  message(FATAL_ERROR
      "pareto --app drr not reported:\n${pareto_noapp_out}")
endif()

# 4. Valueless boolean flags work (--greedy), unknown apps and trailing
#    value-less flags are hard errors.
run_cli(TRUE greedy_out explore --app drr --scale 0.05 --greedy)
expect_usage_error("requires a value" explore --app)
expect_usage_error("unknown app" explore --app not-registered)

# 5. Malformed numeric flag values are clean usage errors, not uncaught
#    std::invalid_argument crashes — for every numeric flag.
expect_usage_error("expects a number" explore --app url --scale abc)
expect_usage_error("expects a number"
                   explore --app url --scale 0.05 --survivor-cap 0.2x)
expect_usage_error("expects a non-negative integer"
                   explore --app url --scale 0.05 --jobs -1)
expect_usage_error("expects a non-negative integer"
                   tracegen --preset nlanr-campus --packets 10x)
expect_usage_error("expects a non-negative integer"
                   tracegen --preset nlanr-campus --seed-offset z)

# 6. Persistent simulation cache: a warm rerun executes ZERO simulations
#    and writes a byte-identical result log. Both runs are traced, and
#    tracing is observation-only: each trace must pass tracecheck and the
#    traced warm rerun still executes nothing.
set(CACHE_DIR "${WORK_DIR}/sim_cache")
file(REMOVE_RECURSE "${CACHE_DIR}")
set(COLD_LOG "${WORK_DIR}/cache_cold.log")
set(WARM_LOG "${WORK_DIR}/cache_warm.log")
set(COLD_TRACE "${WORK_DIR}/cache_cold_trace.json")
set(WARM_TRACE "${WORK_DIR}/cache_warm_trace.json")
run_cli(TRUE cache_cold_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR}
        --log ${COLD_LOG} --trace ${COLD_TRACE})
if(NOT cache_cold_out MATCHES "persistent cache: +loaded 0, stored [1-9]")
  message(FATAL_ERROR
      "cold run did not store cache records:\n${cache_cold_out}")
endif()
run_cli(TRUE cache_warm_out
        explore --app url --scale 0.05 --cache-dir ${CACHE_DIR}
        --log ${WARM_LOG} --trace ${WARM_TRACE})
if(NOT cache_warm_out MATCHES "executed simulations: +0 ")
  message(FATAL_ERROR
      "warm rerun executed simulations:\n${cache_warm_out}")
endif()
file(READ "${COLD_LOG}" cold_log_bytes)
file(READ "${WARM_LOG}" warm_log_bytes)
if(NOT cold_log_bytes STREQUAL warm_log_bytes)
  message(FATAL_ERROR
      "warm-cache rerun log differs from the cold run's")
endif()
foreach(trace ${COLD_TRACE} ${WARM_TRACE})
  run_cli(TRUE tracecheck_out tracecheck ${trace})
  if(NOT tracecheck_out MATCHES ": OK")
    message(FATAL_ERROR "tracecheck ${trace}:\n${tracecheck_out}")
  endif()
endforeach()

# 7. `ddtr cache` on section 6's warm cache dir: stats and verify read
#    its one file, clear removes it, and the operations and flags of the
#    removed distribution layer are usage errors naming the op or flag.
run_cli(TRUE cache_stats_out cache stats ${CACHE_DIR})
if(NOT cache_stats_out MATCHES "entries")
  message(FATAL_ERROR "cache stats output unexpected:\n${cache_stats_out}")
endif()
run_cli(TRUE cache_verify_out cache verify ${CACHE_DIR})
if(NOT cache_verify_out MATCHES "cache verify: OK")
  message(FATAL_ERROR "cache verify failed:\n${cache_verify_out}")
endif()
run_cli(TRUE cache_clear_out cache clear ${CACHE_DIR})
if(NOT cache_clear_out MATCHES "removed 1 cache file ")
  message(FATAL_ERROR "cache clear output unexpected:\n${cache_clear_out}")
endif()
if(EXISTS "${CACHE_DIR}/sim_cache.ddtr")
  message(FATAL_ERROR "cache clear left ${CACHE_DIR}/sim_cache.ddtr behind")
endif()
expect_usage_error("unknown cache operation" cache frobnicate ${CACHE_DIR})
expect_usage_error("unknown cache operation 'merge'" cache merge ${CACHE_DIR})
expect_usage_error("unknown cache operation 'gc'" cache gc ${CACHE_DIR})
expect_usage_error("explore: unknown flag --shard"
                   explore --app url --cache-dir ${CACHE_DIR} --shard 0/2)
expect_usage_error("explore: unknown flag --workers"
                   explore --app url --cache-dir ${CACHE_DIR} --workers 2)

# 8. Two explore processes store into one cache dir at once: the
#    directory lock serializes their read-merge-replace stores, so the
#    file holds both workloads' records, verifies clean, and each warm
#    rerun executes nothing.
set(SHARED_DIR "${WORK_DIR}/shared_cache")
file(REMOVE_RECURSE "${SHARED_DIR}")
execute_process(
    COMMAND sh -c "\"$0\" explore --app route --scale 0.05 --cache-dir \"$1\" \
> \"$2/route_shared.out\" 2>&1 & r=$!; \
\"$0\" explore --app url --scale 0.05 --cache-dir \"$1\" \
> \"$2/url_shared.out\" 2>&1 & u=$!; wait $r && wait $u"
        ${DDTR_CLI} ${SHARED_DIR} ${WORK_DIR}
    RESULT_VARIABLE shared_result)
if(NOT shared_result EQUAL 0)
  message(FATAL_ERROR "concurrent explores failed (exit ${shared_result})")
endif()
run_cli(TRUE shared_stats_out cache stats ${SHARED_DIR})
# <registry name>:<workload name as cache stats lists it>
foreach(pair route:Route url:URL)
  string(REPLACE ":" ";" pair "${pair}")
  list(GET pair 0 app)
  list(GET pair 1 name)
  file(READ "${WORK_DIR}/${app}_shared.out" shared_out)
  if(NOT shared_out MATCHES
     "persistent cache: +loaded [0-9]+, stored ([1-9][0-9]*) ")
    message(FATAL_ERROR "concurrent ${app} run stored nothing:\n${shared_out}")
  endif()
  set(stored ${CMAKE_MATCH_1})
  if(NOT shared_stats_out MATCHES "\n${name} +${stored} *\n")
    message(FATAL_ERROR
        "cache stats lacks ${name} with ${stored} entries:\n${shared_stats_out}")
  endif()
  run_cli(TRUE shared_warm_out
          explore --app ${app} --scale 0.05 --cache-dir ${SHARED_DIR})
  if(NOT shared_warm_out MATCHES "executed simulations: +0 ")
    message(FATAL_ERROR
        "warm ${app} rerun over the shared dir executed:\n${shared_warm_out}")
  endif()
endforeach()
run_cli(TRUE shared_verify_out cache verify ${SHARED_DIR})
if(NOT shared_verify_out MATCHES "cache verify: OK")
  message(FATAL_ERROR "shared cache verify failed:\n${shared_verify_out}")
endif()

# 9. An output file that cannot be written is an error (exit 1 naming the
#    file), not a "wrote" line: one case per file-writing flag. (The same
#    check of `submit --log` needs a daemon; serve_smoke makes it.)
set(NO_DIR "${WORK_DIR}/no_such_dir")
file(REMOVE_RECURSE "${NO_DIR}")
function(expect_write_error path)
  execute_process(
      COMMAND ${DDTR_CLI} ${ARGN}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errout)
  if(NOT result EQUAL 1
     OR NOT errout MATCHES "error: cannot write ${path}\n"
     OR output MATCHES "wrote ")
    message(FATAL_ERROR
        "ddtr ${ARGN}: expected exit 1 and 'error: cannot write ${path}', "
        "got exit ${result}:\n${output}\n${errout}")
  endif()
  set(write_error_out "${output}" PARENT_SCOPE)
endfunction()
expect_write_error(${NO_DIR}/x.log
                   explore --app url --scale 0.05 --log ${NO_DIR}/x.log)
expect_write_error(${NO_DIR}/p_records.csv
                   explore --app url --scale 0.05 --csv ${NO_DIR}/p)
expect_write_error(${NO_DIR}/t.trace
                   tracegen --preset nlanr-campus --packets 10
                   --out ${NO_DIR}/t.trace)
# The trace is written last: a failed one still leaves the report.
expect_write_error(${NO_DIR}/t.json
                   explore --app url --scale 0.05 --trace ${NO_DIR}/t.json)
if(NOT write_error_out MATCHES "executed simulations:")
  message(FATAL_ERROR
      "explore with an unwritable --trace printed no report:\n"
      "${write_error_out}")
endif()

# 10. Serve-daemon flag contract, daemonless: a missing or valueless
#     --socket fails fast, before any connect.
expect_usage_error("missing required flag --socket" serve)
expect_usage_error("requires a value" submit --app url --socket)
run_cli(FALSE submit_noconnect_out
        submit --socket ${WORK_DIR}/nope.sock --app url)
if(NOT submit_noconnect_out MATCHES "cannot connect")
  message(FATAL_ERROR
      "dead-socket submit not reported:\n${submit_noconnect_out}")
endif()

# 11. The command table's contract, before any work starts. Unknown flags
#     (leftovers of removed features, typos) name the subcommand and flag.
expect_usage_error("explore: unknown flag --step1-sharded"
                   explore --app url --step1-sharded)
expect_usage_error("explore: unknown flag --barrier-timeout"
                   explore --app url --barrier-timeout 5)
expect_usage_error("explore: unknown flag --jbos"
                   explore --app url --jbos 4)
expect_usage_error("submit: unknown flag --every"
                   submit --socket ${WORK_DIR}/nope.sock --app url --every 5)
expect_usage_error("stats: unknown flag --metrics"
                   stats --socket ${WORK_DIR}/nope.sock --metrics)
expect_usage_error("submit: unknown flag --jobs"
                   submit --socket ${WORK_DIR}/nope.sock --app url --jobs 2)
expect_usage_error("serve: unknown flag --progress-every"
                   serve --socket ${WORK_DIR}/nope.sock --progress-every 1)
expect_usage_error("explore: unknown flag --progress"
                   explore --app url --progress)
expect_usage_error("submit: unknown flag --progress"
                   submit --socket ${WORK_DIR}/nope.sock --app url --progress)
# Protocol v9 (as since v8): submit prints the explore report, with no
# 2-D listing axes, and SIGTERM/SIGINT are the one way to stop a daemon.
expect_usage_error("submit: unknown flag --x"
                   submit --socket ${WORK_DIR}/nope.sock --app url --x time)
expect_usage_error("unknown command 'shutdown'"
                   shutdown --socket ${WORK_DIR}/nope.sock)
# Numeric ranges: scale in (0, 100], as the daemon's; survivor-cap in
# (0, 1], the daemon's [0, 1] without the wire's "unset" 0.
expect_usage_error("explore: flag --scale expects a number in \\(0,100\\]"
                   explore --app url --scale 0)
expect_usage_error("explore: flag --scale expects a number .*'nan'"
                   explore --app url --scale nan)
expect_usage_error("explore: flag --survivor-cap expects a number in \\(0,1\\]"
                   explore --app url --survivor-cap 2)
expect_usage_error("explore: flag --survivor-cap expects a number in \\(0,1\\]"
                   explore --app drr --greedy --survivor-cap 0)
expect_usage_error("submit: flag --survivor-cap expects a number in \\(0,1\\]"
                   submit --socket ${WORK_DIR}/nope.sock --app drr --greedy
                   --survivor-cap 0)
# The packets override is bounded as the daemon bounds it
# (serve::kMaxPackets): refused before any connection is tried.
expect_usage_error("submit: flag --packets expects a count in \\[0,1000000\\]"
                   submit --socket ${WORK_DIR}/nope.sock --app url
                   --packets 1000001)
# A bad metric is named; a boolean never swallows the next token.
expect_usage_error("pareto: flag --x .*'bogus'"
                   pareto --log ${LOG_FILE} --x bogus)
expect_usage_error("explore: unexpected argument 'stray'"
                   explore --app url --greedy stray)
# Bare `ddtr` prints the generated usage: it lists exactly the subcommands
# that dispatch, each of which rejects an unknown flag.
set(commands apps ddts presets tracegen traceparse explore pareto cache
    serve submit stats tracecheck)
expect_usage_error("^usage:\n")
string(REGEX MATCHALL "\n  ddtr [a-z]+" listed "${usage_error_out}")
string(REPLACE "\n  ddtr " "" listed "${listed}")
if(NOT listed STREQUAL commands)
  message(FATAL_ERROR "usage lists '${listed}', expected '${commands}'")
endif()
foreach(command ${commands})
  expect_usage_error("${command}: unknown flag --bogus" ${command} --bogus)
endforeach()

message(STATUS "cli_smoke: all CLI flows passed")
