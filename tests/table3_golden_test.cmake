# Golden gate on the paper's headline numbers: runs one Table III cell
# (xi = 1%, 5 epochs) without a pool and on 4 pool threads, and compares
# the full-digit `table3` row of each run (ER@5 / ER@10 / NDCG@10 to 10
# decimals) character for character against a committed golden. Run by the
# `table3_golden` suite registered in tests/CMakeLists.txt:
#   cmake -DBENCH=<bench_table3_xi> -DGOLDEN=<golden file> -P this_file
#
# Both thread counts diff against the same golden: FedRecAttack splits its
# poison gradient into a fixed number of chunks and every other parallel
# step is partition-invariant, so the digits do not depend on the pool.
# A deliberate change to the numbers re-records the golden with
#   bench_table3_xi --quick --xi=0.01 --epochs=5 --threads=4 \
#     | grep '^table3 ' > tests/golden/table3_xi_quick.txt

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "table3_golden_test.cmake needs -DBENCH and -DGOLDEN")
endif()

file(READ ${GOLDEN} expected)
foreach(threads 1 4)
  execute_process(
    COMMAND ${BENCH} --quick --xi=0.01 --epochs=5 --threads=${threads}
    OUTPUT_VARIABLE output
    RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
      "bench_table3_xi --threads=${threads} exited with ${exit_code}:\n"
      "${output}")
  endif()

  string(REPLACE "\n" ";" lines "${output}")
  set(rows "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^table3 ")
      string(APPEND rows "${line}\n")
    endif()
  endforeach()

  if(NOT rows STREQUAL expected)
    message(FATAL_ERROR
      "Table III digits at --threads=${threads} differ from the golden "
      "${GOLDEN}.\nexpected:\n${expected}got:\n${rows}")
  endif()
  message(STATUS "Table III golden OK at --threads=${threads}:\n${rows}")
endforeach()
