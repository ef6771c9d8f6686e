# Regression check for the sweep's report step: when --out names a file
# that cannot be created (a missing directory) or written (a report path
# that is a symlink to /dev/full, so the writes fail after the open), the
# real explore_cli binary must print "explore_cli: cannot write <path>",
# exit nonzero, and never claim "wrote ...".  Invoked by ctest as:
#   cmake -DCLI=<path-to-explore_cli> -DWORK=<scratch dir>
#         -P expect_report_write_failure.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<path to explore_cli> -DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs a tiny sweep with --out `prefix`; expects failure naming `path`.
function(expect_cannot_write prefix path)
  execute_process(
      COMMAND ${CLI} --quiet --budgets 64 --apps kmeans --out "${prefix}"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "--out ${prefix}: exit 0 although ${path} could "
                        "not be written:\n${out}")
  endif()
  string(FIND "${err}" "explore_cli: cannot write ${path}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--out ${prefix}: stderr does not name ${path}: "
                        "${err}")
  endif()
  if(out MATCHES "wrote ")
    message(FATAL_ERROR "--out ${prefix}: claims a report was written: "
                        "${out}")
  endif()
endfunction()

# The file cannot be created.
expect_cannot_write("${WORK}/missing/dir/x" "${WORK}/missing/dir/x.csv")

# The files open but every write fails (ENOSPC).
if(EXISTS /dev/full)
  file(CREATE_LINK /dev/full "${WORK}/full.csv" SYMBOLIC)
  file(CREATE_LINK /dev/full "${WORK}/full.ndjson" SYMBOLIC)
  expect_cannot_write("${WORK}/full" "${WORK}/full.csv")
  # A good CSV does not excuse a failed NDJSON.
  file(REMOVE "${WORK}/full.csv")
  expect_cannot_write("${WORK}/full" "${WORK}/full.ndjson")
else()
  message(STATUS "no /dev/full here: the write-failure half is skipped")
endif()

# The success path still reports what it wrote.
execute_process(
    COMMAND ${CLI} --quiet --budgets 64 --apps kmeans --out "${WORK}/ok"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0 OR NOT out MATCHES "wrote ")
  message(FATAL_ERROR "a writable --out failed (${status}): ${out}${err}")
endif()

file(REMOVE_RECURSE "${WORK}")
