# Golden gate on the paper's headline numbers: runs one Table III cell
# (xi = 1%, 5 epochs, 4 pool threads) and compares the ER@5 / ER@10 /
# NDCG@10 rows of the printed table character for character against a
# committed golden. Run by the `table3_golden` suite registered in
# tests/CMakeLists.txt:
#   cmake -DBENCH=<bench_table3_xi> -DGOLDEN=<golden file> -P this_file
#
# The thread count is pinned because FedRecAttack sums one partial gradient
# per pool thread: a different count changes the float summation order.
# A deliberate change to the numbers re-records the golden with
#   bench_table3_xi --quick --xi=0.01 --epochs=5 --threads=4 \
#     | grep -E '^\| (ER@5|ER@10|NDCG@10) ' > tests/golden/table3_xi_quick.txt

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "table3_golden_test.cmake needs -DBENCH and -DGOLDEN")
endif()

execute_process(
  COMMAND ${BENCH} --quick --xi=0.01 --epochs=5 --threads=4
  OUTPUT_VARIABLE output
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "bench_table3_xi exited with ${exit_code}:\n${output}")
endif()

string(REPLACE "\n" ";" lines "${output}")
set(rows "")
foreach(line IN LISTS lines)
  if(line MATCHES "^\\| (ER@5|ER@10|NDCG@10) ")
    string(APPEND rows "${line}\n")
  endif()
endforeach()

file(READ ${GOLDEN} expected)
if(NOT rows STREQUAL expected)
  message(FATAL_ERROR
    "Table III rows differ from the golden ${GOLDEN}.\n"
    "expected:\n${expected}got:\n${rows}")
endif()
message(STATUS "Table III golden OK:\n${rows}")
