# End-to-end check of serve_cli's --metrics stream and its flag
# validation: record a tiny run with the real explore_cli, serve it for
# 1.5 s with --metrics while serve_client sends a few queries, then
# require NDJSON window lines carrying window, qps and a non-decreasing
# completed count.  An out-of-range --port and the retired flags (the
# admission limit, --merge-from; serve_client's --timeout-seconds) must
# each exit 1.  Invoked by ctest as:
#   cmake -DEXPLORE=<explore_cli> -DSERVER=<serve_cli>
#         -DCLIENT=<serve_client> -DWORK=<scratch dir>
#         -P expect_serve_metrics.cmake
#
# The script also runs as the client half of the check (-DMODE=client):
# it waits for the server's port file, then sends the queries.

if(MODE STREQUAL "client")
  foreach(attempt RANGE 200)
    if(EXISTS "${PORT_FILE}")
      break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.05)
  endforeach()
  if(NOT EXISTS "${PORT_FILE}")
    message(FATAL_ERROR "serve_cli never wrote ${PORT_FILE}")
  endif()
  execute_process(
      COMMAND ${CLIENT} --port-file "${PORT_FILE}"
      INPUT_FILE "${WORK}/queries.txt"
      OUTPUT_FILE "${WORK}/replies.txt"
      RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "serve_client failed (${status})")
  endif()
  return()
endif()

if(NOT DEFINED EXPLORE OR NOT DEFINED SERVER OR NOT DEFINED CLIENT OR
   NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DEXPLORE=<explore_cli> -DSERVER=<serve_cli> "
                      "-DCLIENT=<serve_client> -DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(run "${WORK}/run")
set(port_file "${WORK}/port")
set(metrics "${WORK}/metrics.ndjson")

execute_process(
    COMMAND ${EXPLORE} --quiet --apps kmeans --budgets 64
        --variants asymmetric --small-cores 1,4 --sizes 8,16
        --run-dir "${run}" --out "${WORK}/report"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "recording the run failed (${status}): ${err}")
endif()

set(queries "")
foreach(round RANGE 3)
  string(APPEND queries "best\ntopk 3\npareto area\nstats\n")
endforeach()
string(APPEND queries "quit\n")
file(WRITE "${WORK}/queries.txt" "${queries}")

# Both COMMANDs start at once (execute_process runs them as a pipeline),
# so the client half polls for the port file the server writes.  Neither
# reads the other's output.
execute_process(
    COMMAND ${CMAKE_COMMAND} -DMODE=client -DCLIENT=${CLIENT}
        -DPORT_FILE=${port_file} -DWORK=${WORK}
        -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${SERVER} --run-dir "${run}" --port 0 --port-file "${port_file}"
        --metrics "${metrics}" --max-seconds 1.5
    RESULTS_VARIABLE statuses
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT statuses STREQUAL "0;0")
  message(FATAL_ERROR "client;server exit codes ${statuses}:\n${out}\n${err}")
endif()

file(READ "${port_file}" port)
string(STRIP "${port}" port)
if(NOT port MATCHES "^[0-9]+$" OR port EQUAL 0 OR port GREATER 65535)
  message(FATAL_ERROR "--port 0 did not bind an ephemeral port: '${port}'")
endif()
file(READ "${WORK}/replies.txt" replies)
if(NOT replies MATCHES "OK best lines=1\n" OR NOT replies MATCHES "OK stats")
  message(FATAL_ERROR "missing replies:\n${replies}")
endif()

file(STRINGS "${metrics}" lines)
list(LENGTH lines count)
if(count EQUAL 0)
  message(FATAL_ERROR "--metrics wrote no window lines")
endif()
set(previous 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES
     "^{\"window\":[0-9]+,\"qps\":[-+.0-9e]+,\"completed\":([0-9]+)}$")
    message(FATAL_ERROR "malformed --metrics line: ${line}")
  endif()
  set(completed "${CMAKE_MATCH_1}")
  if(completed LESS previous)
    message(FATAL_ERROR "completed fell from ${previous} to ${completed}")
  endif()
  set(previous "${completed}")
endforeach()

# Rejected flags: exit 1 with a serve_cli-prefixed error, never a bound
# server.
function(expect_rejected flag value)
  execute_process(
      COMMAND ${SERVER} --run-dir "${run}" --${flag} ${value}
          --max-seconds 0.2
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "--${flag} ${value}: exit ${status}, not 1:\n${out}")
  endif()
  if(NOT err MATCHES "serve_cli: .*${flag}")
    message(FATAL_ERROR "--${flag} ${value}: stderr does not name it: ${err}")
  endif()
endfunction()
expect_rejected(port 70000)
expect_rejected(port -1)
expect_rejected(probe-step 2)
# A union is served by folding it first (explore_cli --archive
# --merge-from), not by serve_cli.
expect_rejected(merge-from "${run}")

# --timeout-ms is serve_client's one deadline knob.
execute_process(
    COMMAND ${CLIENT} --timeout-seconds 3 --query best
    RESULT_VARIABLE status
    ERROR_VARIABLE err)
if(NOT status EQUAL 1 OR NOT err MATCHES "unknown option --timeout-seconds")
  message(FATAL_ERROR "serve_client --timeout-seconds: exit ${status}: ${err}")
endif()

file(REMOVE_RECURSE "${WORK}")
