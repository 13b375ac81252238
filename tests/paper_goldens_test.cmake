# The paper records at smoke scale against goldens/: renoc_paper --smoke
# must write exactly the set of records goldens/ pins, and each must pass
# renoc_golden_diff. Also checks both tools' usage errors (exit 2). Run as
#   cmake -DRENOC_PAPER=<renoc_paper> -DGOLDEN_DIFF=<renoc_golden_diff>
#         -DGOLDEN_DIR=<goldens/> -DWORK_DIR=<dir> -P <this file>
if(NOT RENOC_PAPER OR NOT GOLDEN_DIFF OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "set RENOC_PAPER, GOLDEN_DIFF, GOLDEN_DIR and WORK_DIR")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
set(records "${WORK_DIR}/records")
file(MAKE_DIRECTORY "${records}")

# Fails unless the command exits with `want`.
function(expect_exit want)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "${want}")
    list(JOIN ARGN " " shown)
    message(FATAL_ERROR "${shown}: exit code ${rc}, expected ${want}")
  endif()
endfunction()

# renoc_paper: a usage error exits 2 before any record is written; a
# record it cannot publish exits 1 with the message.
expect_exit(2 "${RENOC_PAPER}" --smoke --json-dir "${records}" --bogus)
expect_exit(2 "${RENOC_PAPER}" --smoke --json-dir)
expect_exit(2 "${RENOC_PAPER}" --smoke --json-dir "${WORK_DIR}/missing")
file(WRITE "${WORK_DIR}/not-a-dir" "")
expect_exit(2 "${RENOC_PAPER}" --smoke --json-dir "${WORK_DIR}/not-a-dir")
file(GLOB written "${records}/*")
if(written)
  message(FATAL_ERROR "a rejected invocation wrote ${written}")
endif()
set(blocked "${WORK_DIR}/blocked")
file(MAKE_DIRECTORY "${blocked}/PAPER_table1.json")
expect_exit(1 "${RENOC_PAPER}" --smoke --json-dir "${blocked}")

# renoc_golden_diff: a tolerance must be a whole finite number >= 0.
set(table1 "${GOLDEN_DIR}/PAPER_table1.json")
expect_exit(2 "${GOLDEN_DIFF}" "${table1}" "${table1}" --rel-tol 5%)
expect_exit(2 "${GOLDEN_DIFF}" "${table1}" "${table1}" --rel-tol banana)
expect_exit(2 "${GOLDEN_DIFF}" "${table1}" "${table1}" --abs-tol -1)
expect_exit(2 "${GOLDEN_DIFF}" "${table1}" "${table1}" --abs-tol inf)
expect_exit(0 "${GOLDEN_DIFF}" "${table1}" "${table1}"
  --rel-tol 5e-4 --abs-tol 0)

execute_process(COMMAND "${RENOC_PAPER}" --smoke --json-dir "${records}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "renoc_paper --smoke: exit code ${rc}")
endif()

file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/PAPER_*.json")
file(GLOB written RELATIVE "${records}" "${records}/*")
list(SORT goldens)
list(SORT written)
if(NOT goldens STREQUAL written)
  message(FATAL_ERROR "renoc_paper wrote {${written}}; goldens/ pins "
    "{${goldens}}")
endif()
set(diverged "")
foreach(record IN LISTS goldens)
  execute_process(COMMAND "${GOLDEN_DIFF}" "${GOLDEN_DIR}/${record}"
    "${records}/${record}" RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    list(APPEND diverged "${record}")
  endif()
endforeach()
if(diverged)
  message(FATAL_ERROR "records diverged from goldens/: ${diverged}")
endif()
