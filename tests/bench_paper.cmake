# The paper scorecard pin, run as a ctest (python-free): run bench_paper
# in a scratch directory and compare its stdout byte for byte with the
# checked-in golden. Counts and metrics are deterministic, so any change
# is a change to a number the paper reproduction prints. A golden update
# needs a CHANGES.md line that gives the reason.
#
# Invoked by CMakeLists.txt as:
#   cmake -DBENCH_BIN=<bench_paper> -DWORK_DIR=<scratch-dir>
#         -DGOLDEN=<tests/golden/bench_paper.txt> -P bench_paper.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED BENCH_BIN OR NOT DEFINED WORK_DIR OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR
      "bench_paper.cmake needs -DBENCH_BIN=... -DWORK_DIR=... -DGOLDEN=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ACTUAL "${WORK_DIR}/bench_paper.txt")

execute_process(
    COMMAND ${BENCH_BIN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE result
    OUTPUT_FILE "${ACTUAL}"
    ERROR_VARIABLE errout)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (exit ${result}):\n${errout}")
endif()
foreach(csv fig3_url_pareto_space.csv fig4_route_curves.csv)
  if(NOT EXISTS "${WORK_DIR}/${csv}")
    message(FATAL_ERROR "bench_paper did not write ${csv}")
  endif()
endforeach()

file(READ "${ACTUAL}" actual)
file(READ "${GOLDEN}" golden)
if(actual STREQUAL golden)
  message(STATUS "bench_paper: stdout matches ${GOLDEN}")
  return()
endif()

# Report the first line that differs, found without CMake lists (a line
# may hold brackets or semicolons).
set(line_no 1)
while(TRUE)
  string(FIND "${actual}" "\n" a_end)
  string(FIND "${golden}" "\n" g_end)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  string(SUBSTRING "${golden}" 0 ${g_end} g_line)
  if(NOT a_line STREQUAL g_line OR a_end EQUAL -1 OR g_end EQUAL -1)
    break()
  endif()
  math(EXPR a_end "${a_end} + 1")
  math(EXPR g_end "${g_end} + 1")
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  string(SUBSTRING "${golden}" ${g_end} -1 golden)
  math(EXPR line_no "${line_no} + 1")
endwhile()
message(FATAL_ERROR
    "bench_paper stdout differs from the golden at line ${line_no}:\n"
    "  golden: ${g_line}\n"
    "  actual: ${a_line}\n"
    "Full output: ${ACTUAL}\n"
    "If the change is intended, regenerate the golden and give the reason "
    "in CHANGES.md:\n"
    "  cd ${WORK_DIR} && ${BENCH_BIN} > ${GOLDEN}")
