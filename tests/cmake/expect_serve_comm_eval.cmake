# End-to-end check that a served comm-variant point is evaluated under
# the exact comp_share the run was recorded with: record a
# symmetric-comm run with a 7-digit --comp-share using the real
# explore_cli, ask serve_cli for an off-grid `eval` (answered live and
# appended to the run log), then require the speedup --dump shows for
# that record to equal, digit for digit, the speedup explore_cli itself
# reports for the same point.  Invoked by ctest as:
#   cmake -DEXPLORE=<explore_cli> -DSERVER=<serve_cli>
#         -DCLIENT=<serve_client> -DWORK=<scratch dir>
#         -P expect_serve_comm_eval.cmake
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
set(scenario --quiet --apps kmeans --budgets 64 --variants symmetric-comm
    --topologies mesh --comp-share 0.1234567)

execute_process(
    COMMAND ${EXPLORE} ${scenario} --sizes 1,2,4 --run-dir "${run}"
        --out "${WORK}/recorded"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "recording the run failed (${status}): ${err}")
endif()

file(WRITE "${WORK}/queries.txt"
     "eval variant=symmetric-comm n=64 app=kmeans growth=linear "
     "topology=mesh r=8\nquit\n")
execute_process(
    COMMAND ${CMAKE_COMMAND} -DMODE=client -DCLIENT=${CLIENT}
        -DPORT_FILE=${port_file} -DWORK=${WORK}
        -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${SERVER} --run-dir "${run}" --port 0 --port-file "${port_file}"
        --max-seconds 2
    RESULTS_VARIABLE statuses
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT statuses STREQUAL "0;0")
  message(FATAL_ERROR "client;server exit codes ${statuses}:\n${out}\n${err}")
endif()
file(READ "${WORK}/replies.txt" replies)
if(NOT replies MATCHES "source=live")
  message(FATAL_ERROR "the eval was not answered live:\n${replies}")
endif()

# The live record, as --dump prints it (%.17g speedups).
execute_process(
    COMMAND ${EXPLORE} --dump --run-dir "${run}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE dump
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--dump failed (${status}): ${err}")
endif()
if(NOT dump MATCHES "\"r\":8,[^\n]*\"speedup\":([-+.0-9e]+)")
  message(FATAL_ERROR "--dump holds no r=8 record:\n${dump}")
endif()
set(served "${CMAKE_MATCH_1}")

# explore_cli's own evaluation of the same point.
execute_process(
    COMMAND ${EXPLORE} ${scenario} --sizes 8 --out "${WORK}/reference"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "the reference sweep failed (${status}): ${err}")
endif()
file(READ "${WORK}/reference.ndjson" reference)
if(NOT reference MATCHES "\"speedup\":([-+.0-9e]+)")
  message(FATAL_ERROR "reference.ndjson holds no speedup:\n${reference}")
endif()
set(expected "${CMAKE_MATCH_1}")

if(NOT served STREQUAL expected)
  message(FATAL_ERROR "served speedup ${served} differs from explore_cli's "
                      "${expected} for the same point")
endif()

file(REMOVE_RECURSE "${WORK}")
