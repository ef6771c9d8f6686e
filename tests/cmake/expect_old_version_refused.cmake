# Run directories whose records carry the older index meaning (format
# version 1: an unsharded sweep numbered by expansion order, adaptive
# records by batch slot) are refused, naming the fix, by every reader:
# explore_cli --resume, explore_cli --archive and serve_cli start-up.
# A version-1 file is a current one with its u32 version field (byte 4,
# little-endian) set back to 1.
# Invoked by ctest as:
#   cmake -DEXPLORE=<explore_cli> -DSERVER=<serve_cli> -DWORK=<scratch dir>
#         -P expect_old_version_refused.cmake
if(NOT DEFINED EXPLORE OR NOT DEFINED SERVER OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DEXPLORE=<explore_cli> -DSERVER=<serve_cli> "
                      "-DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_ok)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (${status}): ${stderr}")
  endif()
endfunction()

# Runs the command; fails the test unless it exits 1 with stderr
# matching `pattern`.
function(expect_refused pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "${ARGN} exited ${status}, not 1: ${stdout}${stderr}")
  endif()
  if(NOT stderr MATCHES "${pattern}")
    message(FATAL_ERROR "${ARGN}: stderr does not match '${pattern}': "
                        "${stderr}")
  endif()
endfunction()

# Writes version 1 into the header of `path`.
string(ASCII 1 version_one)
file(WRITE "${WORK}/version.byte" "${version_one}")
function(set_version_one path)
  execute_process(
      COMMAND dd "of=${path}" bs=1 seek=4 count=1 conv=notrunc
      INPUT_FILE "${WORK}/version.byte"
      RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
  file(READ "${path}" version OFFSET 4 LIMIT 4 HEX)
  if(NOT status EQUAL 0 OR NOT version STREQUAL "01000000")
    message(FATAL_ERROR "could not set ${path}'s version to 1 (${version})")
  endif()
endfunction()

set(sweep --quiet --apps kmeans --budgets 64 --out "${WORK}/report")
set(search ${sweep} --strategy random --budget 20)

# A run log: an adaptive run keeps its results.msbin.
run_ok(${EXPLORE} ${search} --run-dir "${WORK}/log")
set_version_one("${WORK}/log/results.msbin")
set(log_fix "different format version/schema.*re-record or fold it with a matching build")
expect_refused("${log_fix}" ${EXPLORE} ${search} --resume "${WORK}/log")
expect_refused("${log_fix}" ${EXPLORE} --archive --run-dir "${WORK}/log")
expect_refused("${log_fix}" ${SERVER} --run-dir "${WORK}/log" --port 0
               --max-seconds 2)

# An archive: a fresh sweep ends as one.
run_ok(${EXPLORE} ${sweep} --run-dir "${WORK}/archive")
set_version_one("${WORK}/archive/archive.msca")
set(archive_fix "different format version/schema.*re-archive with a matching build")
expect_refused("${archive_fix}" ${EXPLORE} ${sweep} --resume "${WORK}/archive")
expect_refused("${archive_fix}" ${EXPLORE} --archive --run-dir "${WORK}/archive")
expect_refused("${archive_fix}" ${SERVER} --run-dir "${WORK}/archive" --port 0
               --max-seconds 2)

file(REMOVE_RECURSE "${WORK}")
