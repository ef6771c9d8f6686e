# Byte-identity guard for the sweep reports: the real explore_cli binary
# sweeps a small grid (all four model variants, mesh and bus topologies,
# duplicate and fractional --sizes, a fractional small core, infeasible
# asymmetric points) and its --out CSV and NDJSON must equal the committed
# golden files byte for byte, at --threads 2, 1 and 3.  The duplicate
# size is one design point, reported once, and every NDJSON index is a
# canonical flat index.
# Invoked by ctest as:
#   cmake -DCLI=<path-to-explore_cli> -DWORK=<scratch dir>
#         -DGOLDEN=<tests/data dir> -P expect_report_golden.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "pass -DCLI=<explore_cli> -DWORK=<scratch dir> "
                      "-DGOLDEN=<dir holding report_golden.{csv,ndjson}>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(GRID
    --variants symmetric,asymmetric,symmetric-comm,asymmetric-comm
    --topologies mesh,bus --apps kmeans,hop --growths linear,log
    --budgets 64,256 --small-cores 1,2.5,4,24
    --sizes 1,1.5,2,2,3,4,6.25,8,12,16,24.5,32,48,60,64,100,128,200,250,256)

# The reports are rendered on the --threads team; their bytes must not
# depend on its size.
foreach(threads 2 1 3)
  execute_process(
      COMMAND ${CLI} --quiet --threads ${threads} ${GRID}
          --out "${WORK}/report"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "the --threads ${threads} sweep failed (${status}): "
                        "${err}")
  endif()
  if(NOT out MATCHES "scenario: 1980 jobs")
    message(FATAL_ERROR "the grid no longer holds 1980 design points: ${out}")
  endif()

  foreach(ext csv ndjson)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK}/report.${ext}" "${GOLDEN}/report_golden.${ext}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "report.${ext} at --threads ${threads} differs from "
                          "report_golden.${ext}; kept in ${WORK} for "
                          "inspection")
    endif()
  endforeach()
endforeach()

# --cost-metric is the sweep's Pareto cost axis too (the search's
# archive already took it); the reports do not depend on it.
execute_process(
    COMMAND ${CLI} --quiet --threads 2 ${GRID} --cost-metric cores
        --out "${WORK}/cores"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "the --cost-metric cores sweep failed (${status}): "
                      "${err}")
endif()
if(NOT out MATCHES "== Pareto frontier \\(speedup vs\\. core count\\) ==")
  message(FATAL_ERROR "--cost-metric cores did not pick the sweep's Pareto "
                      "table: ${out}")
endif()
foreach(ext csv ndjson)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK}/cores.${ext}" "${GOLDEN}/report_golden.${ext}"
      RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "cores.${ext} differs from report_golden.${ext}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
