# Pins the deterministic tables the paper-claim benches print before their
# google-benchmark timings (EXPERIMENTS.md quotes them).  Runs each bench
# with --benchmark_filter=NONE and compares its stdout byte for byte with
# GOLDEN_DIR/<bench>.txt; with DPHO_GOLDEN_REGEN=1 in the environment it
# rewrites those files instead (tests/golden/regen.sh).
#
#   cmake -DBENCH_DIR=<bench binaries> -DGOLDEN_DIR=<dir> -DBENCHES=a,b,...
#         -P paper_tables.cmake
string(REPLACE "," ";" benches "${BENCHES}")
set(failed "")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" --benchmark_filter=NONE
    OUTPUT_VARIABLE actual ERROR_VARIABLE errors RESULT_VARIABLE status)
  set(golden "${GOLDEN_DIR}/${bench}.txt")
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${bench} exited with ${status}:\n${errors}")
    list(APPEND failed ${bench})
  elseif("$ENV{DPHO_GOLDEN_REGEN}" STREQUAL "1")
    file(WRITE "${golden}" "${actual}")
    message(STATUS "rewrote ${golden}")
  else()
    file(READ "${golden}" expected)
    if(NOT actual STREQUAL expected)
      file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${bench}.actual.txt" "${actual}")
      message(SEND_ERROR "${bench}: table differs from ${golden}; "
                         "see diff ${golden} ${CMAKE_CURRENT_BINARY_DIR}/"
                         "${bench}.actual.txt")
      list(APPEND failed ${bench})
    endif()
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "paper tables changed: ${failed}")
endif()
