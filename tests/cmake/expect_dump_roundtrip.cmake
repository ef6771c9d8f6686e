# Regression driver for the run log's line-per-record view: the real
# explore_cli binary records a tiny persisted search, and
# `--dump --run-dir` must print exactly one JSON line per recorded
# result.  `--log-format ndjson` (the retired row-log format) must fail
# and point at --dump.  Invoked by ctest as:
#   cmake -DCLI=<path-to-explore_cli> -DWORK=<scratch dir>
#         -P expect_dump_roundtrip.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<path to explore_cli> -DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")

execute_process(
    COMMAND ${CLI} --quiet --strategy random --budget 40
        --run-dir "${WORK}/run" --out "${WORK}/report"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "recording the run failed (${status}): ${err}")
endif()
if(NOT out MATCHES "log: ([0-9]+) fresh results appended to")
  message(FATAL_ERROR "no 'log: N fresh results' line in: ${out}")
endif()
set(recorded "${CMAKE_MATCH_1}")
if(recorded EQUAL 0)
  message(FATAL_ERROR "the run recorded nothing; the check would be vacuous")
endif()

execute_process(
    COMMAND ${CLI} --dump --run-dir "${WORK}/run"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE dump
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--dump failed (${status}): ${err}")
endif()
string(REGEX MATCHALL "[^\n]+\n" lines "${dump}")
list(LENGTH lines dumped)
if(NOT dumped EQUAL recorded)
  message(FATAL_ERROR "--dump printed ${dumped} lines for ${recorded} "
                      "recorded results:\n${dump}")
endif()
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^{\"index\":[0-9]+,.*\"speedup\":")
    message(FATAL_ERROR "--dump line is not an NDJSON record: ${line}")
  endif()
endforeach()

execute_process(
    COMMAND ${CLI} --quiet --log-format ndjson --run-dir "${WORK}/ndjson"
    RESULT_VARIABLE status
    ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "explore_cli accepted --log-format ndjson (exit 0)")
endif()
if(NOT err MATCHES "--dump")
  message(FATAL_ERROR "the ndjson refusal does not point at --dump: ${err}")
endif()

file(REMOVE_RECURSE "${WORK}")
