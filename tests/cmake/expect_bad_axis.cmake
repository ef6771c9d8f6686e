# Regression driver for explore_cli's axis parsing: a scenario axis with
# a malformed number (--budgets 64x, --sizes 4,8q) must exit 1 with an
# error naming the bad value, before a run directory is recorded — no
# meta.json may be left behind for a run that never started.  Invoked by
# ctest as:
#   cmake -DCLI=<path-to-explore_cli> -DWORK=<scratch dir>
#         -P expect_bad_axis.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<explore_cli> -DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(expect_refused name flag value bad)
  set(run "${WORK}/${name}")
  execute_process(
      COMMAND ${CLI} --quiet --apps kmeans --budgets 64 --${flag} ${value}
          --run-dir "${run}" --out "${WORK}/${name}"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "--${flag} ${value}: exit ${status}, not 1:\n${out}")
  endif()
  if(NOT err MATCHES "explore_cli: .*'${bad}'")
    message(FATAL_ERROR "--${flag} ${value}: stderr does not name "
                        "'${bad}': ${err}")
  endif()
  if(EXISTS "${run}/meta.json")
    message(FATAL_ERROR "--${flag} ${value}: a meta.json was recorded")
  endif()
endfunction()

expect_refused(budgets budgets 64x 64x)
expect_refused(sizes sizes 4,8q 8q)
expect_refused(small_cores small-cores 1,x4 x4)

file(REMOVE_RECURSE "${WORK}")
