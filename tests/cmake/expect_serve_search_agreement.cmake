# End-to-end check that serve_cli ranks a recorded search's records as
# explore_cli ranked them: record two adaptive runs on a grid whose two
# apps have equal f/fcon/fored (every design point has an exact twin at
# another canonical index), serve each run directory, and require
#   - serve's `best` reply line to equal the CLI's `best:` line, and
#   - serve's `pareto area` rows to name the same (variant, n, app,
#     growth, r, rl) as the CLI's Pareto archive rows, in order.
# Invoked by ctest as:
#   cmake -DEXPLORE=<explore_cli> -DSERVER=<serve_cli>
#         -DCLIENT=<serve_client> -DWORK=<scratch dir>
#         -P expect_serve_search_agreement.cmake
#
# The script also runs as the client half of the check (-DMODE=client):
# for each run it waits for that server's port file, then sends the
# queries; and as one server (-DMODE=server -DRUN=<run>), which writes
# its output to files of its own.  The three halves run concurrently
# as one pipeline, but none writes to the pipe: a server whose stdout
# fed the next one would die of SIGPIPE when that one exited first.

cmake_policy(SET CMP0007 NEW)  # lists keep their empty elements
set(runs random pareto)

if(MODE STREQUAL "client")
  foreach(run IN LISTS runs)
    set(port_file "${WORK}/${run}.port")
    foreach(attempt RANGE 200)
      if(EXISTS "${port_file}")
        break()
      endif()
      execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.05)
    endforeach()
    if(NOT EXISTS "${port_file}")
      message(FATAL_ERROR "serve_cli never wrote ${port_file}")
    endif()
    execute_process(
        COMMAND ${CLIENT} --port-file "${port_file}"
        INPUT_FILE "${WORK}/queries.txt"
        OUTPUT_FILE "${WORK}/${run}.replies"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "serve_client failed on the ${run} run (${status})")
    endif()
  endforeach()
  return()
endif()

if(MODE STREQUAL "server")
  execute_process(
      COMMAND ${SERVER} --run-dir "${WORK}/${RUN}" --port 0
          --port-file "${WORK}/${RUN}.port" --max-seconds 2
      OUTPUT_FILE "${WORK}/${RUN}.server.out"
      ERROR_FILE "${WORK}/${RUN}.server.err"
      RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    file(READ "${WORK}/${RUN}.server.err" err)
    message(FATAL_ERROR "serve_cli failed on the ${RUN} run (${status}): "
                        "${err}")
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
# `custom` takes kmeans's f/fcon/fored: kmeans and custom are twins.
set(grid --apps kmeans,custom --f 0.99985 --fcon 0.57 --fored 0.72
    --budgets 64,256 --variants symmetric,asymmetric --threads 2)
set(random_args --strategy random --seed 2 --budget 400)
set(pareto_args --strategy pareto --seed 1 --budget 300)

foreach(run IN LISTS runs)
  execute_process(
      COMMAND ${EXPLORE} ${${run}_args} ${grid} --run-dir "${WORK}/${run}"
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "recording the ${run} run failed (${status}): ${err}")
  endif()
  set(${run}_cli "${out}")
endforeach()

file(WRITE "${WORK}/queries.txt" "best\npareto area\nquit\n")
execute_process(
    COMMAND ${CMAKE_COMMAND} -DMODE=client -DCLIENT=${CLIENT} -DWORK=${WORK}
        -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${CMAKE_COMMAND} -DMODE=server -DRUN=random -DSERVER=${SERVER}
        -DWORK=${WORK} -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${CMAKE_COMMAND} -DMODE=server -DRUN=pareto -DSERVER=${SERVER}
        -DWORK=${WORK} -P ${CMAKE_CURRENT_LIST_FILE}
    RESULTS_VARIABLE statuses
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT statuses STREQUAL "0;0;0")
  message(FATAL_ERROR "client;server;server exit codes ${statuses}:\n"
                      "${out}\n${err}")
endif()

# The first "best: ..." line of `text`.
function(best_line text result)
  if(NOT text MATCHES "best: [^\n]*")
    message(FATAL_ERROR "no best: line in:\n${text}")
  endif()
  set(${result} "${CMAKE_MATCH_0}" PARENT_SCOPE)
endfunction()

# The rows of the table titled `title` in `text` (after its header and
# dash lines, up to a blank or END line), each as the fields at
# `positions` joined by spaces.
function(table_rows text title positions result)
  string(FIND "${text}" "${title}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no table titled '${title}' in:\n${text}")
  endif()
  string(SUBSTRING "${text}" ${at} -1 text)
  string(REPLACE "\n" ";" lines "${text}")
  list(REMOVE_AT lines 0 1 2)  # title, header, dashes
  set(rows)
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    if(line STREQUAL "" OR line STREQUAL "END")
      break()
    endif()
    string(REGEX REPLACE " +" ";" fields "${line}")
    set(picked)
    foreach(position IN LISTS positions)
      list(GET fields ${position} field)
      list(APPEND picked "${field}")
    endforeach()
    string(REPLACE ";" " " picked "${picked}")
    list(APPEND rows "${picked}")
  endforeach()
  set(${result} "${rows}" PARENT_SCOPE)
endfunction()

foreach(run IN LISTS runs)
  file(READ "${WORK}/${run}.replies" replies)
  best_line("${${run}_cli}" cli_best)
  best_line("${replies}" served_best)
  if(NOT served_best STREQUAL cli_best)
    message(FATAL_ERROR "${run} run: serve answers '${served_best}', "
                        "explore_cli printed '${cli_best}'")
  endif()
endforeach()

# variant, n, app, growth, r, rl: columns 3 4 5 6 8 9 of the CLI's
# archive table, 1 2 3 4 6 7 of serve's frontier table.
table_rows("${pareto_cli}" "== Pareto archive" "3;4;5;6;8;9" cli_rows)
file(READ "${WORK}/pareto.replies" replies)
table_rows("${replies}" "== Pareto frontier" "1;2;3;4;6;7" served_rows)
if(NOT cli_rows)
  message(FATAL_ERROR "the CLI printed an empty Pareto archive:\n"
                      "${pareto_cli}")
endif()
if(NOT served_rows STREQUAL cli_rows)
  string(REPLACE ";" "\n  " cli_text "${cli_rows}")
  string(REPLACE ";" "\n  " served_text "${served_rows}")
  message(FATAL_ERROR "serve's pareto area rows\n  ${served_text}\ndiffer "
                      "from explore_cli's Pareto archive rows\n  ${cli_text}")
endif()

file(REMOVE_RECURSE "${WORK}")
