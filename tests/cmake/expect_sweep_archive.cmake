# One-pass persisted sweep, end to end through the real explore_cli
# binary:
#   - a fresh exhaustive sweep ends archived: meta.json + archive.msca,
#     no results.msbin;
#   - the same spec as shard 0/1 keeps its log, and --archive on it
#     writes the same archive.msca byte for byte, with the same --dump;
#   - --archive on an archived directory rewrites nothing and prints the
#     same line, and a flipped byte in a column slice makes it exit 1;
#   - on a grid with inert axes, a repeated size and an out-of-bounds
#     size, the plain sweep's archive.msca equals its 1-, 3- and 4-shard
#     folds byte for byte;
#   - a repeated budget is one budget, and an app with another app's
#     f/fcon/fored is a design point of its own, in the sweep and in
#     every adaptive strategy;
#   - --archive refuses adaptive shards and leaves their logs as they
#     were, so each shard still resumes from its own log;
#   - --archive folds 4 exhaustive shards into the archive a 1-shard run
#     folds to, drops ";shards=" from meta.json, and the directory
#     resumes single-process with "0 fresh"; a --merge-from source
#     recorded under another config is refused before anything is
#     written.
# Invoked by ctest as:
#   cmake -DCLI=<path-to-explore_cli> -DWORK=<scratch dir>
#         -P expect_sweep_archive.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<path to explore_cli> -DWORK=<scratch dir>")
endif()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(spec --quiet --apps kmeans --budgets 64)

# Runs explore_cli with the given arguments; fails the test unless it
# exits 0.  Leaves its stdout in `out`.
function(run_cli)
  execute_process(
      COMMAND ${CLI} ${ARGN}
      RESULT_VARIABLE status
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "explore_cli ${ARGN} failed (${status}): ${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

# Runs explore_cli with the given arguments; fails the test unless it
# exits 1 with stderr matching `pattern`.
function(expect_refused pattern)
  execute_process(
      COMMAND ${CLI} ${ARGN}
      RESULT_VARIABLE status
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "explore_cli ${ARGN} exited ${status}, not 1: "
                        "${stdout}${stderr}")
  endif()
  if(NOT stderr MATCHES "${pattern}")
    message(FATAL_ERROR "explore_cli ${ARGN}: stderr does not match "
                        "'${pattern}': ${stderr}")
  endif()
endfunction()

# The `archive:` line of `text`, in `line`.
function(archive_line text)
  if(NOT text MATCHES "(archive: [^\n]*)")
    message(FATAL_ERROR "no 'archive:' line in: ${text}")
  endif()
  set(line "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(expect_equal_files a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# A fresh sweep archives itself from memory.
run_cli(${spec} --run-dir "${WORK}/fresh" --out "${WORK}/fresh")
if(NOT out MATCHES "run 1: ([0-9]+) points")
  message(FATAL_ERROR "no 'run 1:' line: ${out}")
endif()
if(NOT out MATCHES "; ${CMAKE_MATCH_1} fresh, 0 from the log")
  message(FATAL_ERROR "a fresh sweep took points from a log: ${out}")
endif()
archive_line("${out}")
set(sweep_line "${line}")
foreach(name meta.json archive.msca)
  if(NOT EXISTS "${WORK}/fresh/${name}")
    message(FATAL_ERROR "a fresh sweep left no ${name}")
  endif()
endforeach()
if(EXISTS "${WORK}/fresh/results.msbin")
  message(FATAL_ERROR "a fresh sweep left its results.msbin behind")
endif()

# The same spec as shard 0/1 keeps its log; --archive folds it into the
# same bytes.
run_cli(${spec} --shard 0/1 --run-dir "${WORK}/logged" --out "${WORK}/logged")
if(NOT EXISTS "${WORK}/logged/results.shard-0.msbin")
  message(FATAL_ERROR "--shard 0/1 left no results.shard-0.msbin")
endif()
run_cli(--archive --run-dir "${WORK}/logged")
expect_equal_files("${WORK}/fresh/archive.msca" "${WORK}/logged/archive.msca"
                   "archive from memory vs archive from the log")
run_cli(--dump --run-dir "${WORK}/fresh")
set(fresh_dump "${out}")
run_cli(--dump --run-dir "${WORK}/logged")
if(NOT out STREQUAL fresh_dump OR fresh_dump STREQUAL "")
  message(FATAL_ERROR "--dump differs between the two directories:\n"
                      "${fresh_dump}\nvs\n${out}")
endif()

# --archive on an archived directory checks it and rewrites nothing.
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
                "${WORK}/fresh/archive.msca" "${WORK}/before.msca")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
                "${WORK}/fresh/meta.json" "${WORK}/before.json")
run_cli(--archive --run-dir "${WORK}/fresh")
archive_line("${out}")
if(NOT line STREQUAL sweep_line)
  message(FATAL_ERROR "--archive printed '${line}', the sweep '${sweep_line}'")
endif()
run_cli(--archive --run-dir "${WORK}/fresh")
archive_line("${out}")
if(NOT line STREQUAL sweep_line)
  message(FATAL_ERROR "a second --archive printed '${line}', not '${sweep_line}'")
endif()
expect_equal_files("${WORK}/before.msca" "${WORK}/fresh/archive.msca"
                   "--archive rewrote an archived directory")
expect_equal_files("${WORK}/before.json" "${WORK}/fresh/meta.json"
                   "--archive rewrote an archived directory's meta.json")
file(GLOB fresh_files RELATIVE "${WORK}/fresh" "${WORK}/fresh/*")
list(SORT fresh_files)
if(NOT fresh_files STREQUAL "archive.msca;meta.json")
  message(FATAL_ERROR "--archive left ${fresh_files} in an archived directory")
endif()

# One flipped byte in the index column (offset 80: past the 76-byte
# header, inside row 0's index) fails the check.
set(flip_at 80)
file(READ "${WORK}/fresh/archive.msca" original OFFSET ${flip_at} LIMIT 1 HEX)
file(WRITE "${WORK}/flip.byte" "A")
execute_process(
    COMMAND dd "of=${WORK}/fresh/archive.msca" bs=1 seek=${flip_at} count=1
        conv=notrunc
    INPUT_FILE "${WORK}/flip.byte"
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET)
file(READ "${WORK}/fresh/archive.msca" flipped OFFSET ${flip_at} LIMIT 1 HEX)
if(NOT status EQUAL 0 OR flipped STREQUAL original)
  message(FATAL_ERROR "could not flip byte ${flip_at} of the archive")
endif()
execute_process(
    COMMAND ${CLI} --archive --run-dir "${WORK}/fresh"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "--archive over a corrupt archive exited ${status}, "
                      "not 1: ${out}${err}")
endif()
if(NOT err MATCHES "CRC")
  message(FATAL_ERROR "the corrupt-archive error names no CRC: ${err}")
endif()

# Inert axes (the symmetric small core, the topology of the non-comm
# variants), a repeated size and a size past the budget: the plain
# sweep records each design point once, under its canonical flat index,
# so every K-shard fold is the same archive.
set(twins --quiet --apps kmeans --budgets 64
    --variants symmetric,asymmetric,symmetric-comm --topologies mesh,bus
    --small-cores 1,4 --sizes 2,4,4,16,128)
run_cli(${twins} --run-dir "${WORK}/twins" --out "${WORK}/twins")
# symmetric 3 + asymmetric 2 x 3 + symmetric-comm 2 x 3 distinct sizes
if(NOT out MATCHES "scenario: 15 jobs" OR
   NOT out MATCHES "run 1: 15 points[^\n]*; 15 fresh, 0 from the log")
  message(FATAL_ERROR "the twin grid is not 15 fresh points: ${out}")
endif()
foreach(count 1 3 4)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    run_cli(${twins} --shard ${i}/${count} --run-dir "${WORK}/twins${count}"
            --out "${WORK}/twins${count}")
  endforeach()
  run_cli(--archive --run-dir "${WORK}/twins${count}")
  expect_equal_files("${WORK}/twins/archive.msca"
                     "${WORK}/twins${count}/archive.msca"
                     "a plain sweep vs its ${count}-shard fold")
endforeach()

# A repeated budget is one budget: the same points, each evaluated once.
run_cli(--quiet --apps kmeans --budgets 64 --out "${WORK}/one_budget")
if(NOT out MATCHES "scenario: ([0-9]+) jobs")
  message(FATAL_ERROR "no scenario line: ${out}")
endif()
set(one_budget_points "${CMAKE_MATCH_1}")
run_cli(--quiet --apps kmeans --budgets 64,64 --out "${WORK}/twin_budgets")
if(NOT out MATCHES "scenario: ${one_budget_points} jobs" OR
   NOT out MATCHES "run 1: ${one_budget_points} points[^\n]*; ${one_budget_points} fresh,")
  message(FATAL_ERROR "--budgets 64,64 is not --budgets 64's "
                      "${one_budget_points} fresh points: ${out}")
endif()
# An app with kmeans' parameters under its own label is its own point.
run_cli(--quiet --apps kmeans,custom --f 0.99985 --fcon 0.57 --fored 0.72
        --budgets 64 --run-dir "${WORK}/twin_apps" --out "${WORK}/twin_apps")
run_cli(--dump --run-dir "${WORK}/twin_apps")
foreach(app kmeans custom)
  string(REGEX MATCHALL "\"app\":\"${app}\"" lines "${out}")
  list(LENGTH lines records)
  if(NOT records EQUAL 35)
    message(FATAL_ERROR "kmeans,custom logged ${records} ${app} records, "
                        "not one per design point (35)")
  endif()
endforeach()
# So does every adaptive strategy: with a budget past the 70 points, each
# evaluates all of them, 35 under each label.
foreach(strategy random hill-climb anneal genetic pareto)
  run_cli(--quiet --apps kmeans,custom --f 0.99985 --fcon 0.57 --fored 0.72
          --budgets 64 --budget 1000 --strategy ${strategy}
          --run-dir "${WORK}/twin_apps_${strategy}")
  if(NOT out MATCHES "log: 70 fresh results appended")
    message(FATAL_ERROR "${strategy} over kmeans,custom did not evaluate "
                        "its 70 design points: ${out}")
  endif()
  run_cli(--dump --run-dir "${WORK}/twin_apps_${strategy}")
  foreach(app kmeans custom)
    string(REGEX MATCHALL "\"app\":\"${app}\"" lines "${out}")
    list(LENGTH lines records)
    if(NOT records EQUAL 35)
      message(FATAL_ERROR "${strategy} over kmeans,custom logged ${records} "
                          "${app} records, not 35")
    endif()
  endforeach()
endforeach()

# Adaptive shards: --archive refuses them and rewrites nothing, so a
# shard resumes from its own log and spends nothing again.
set(anneal --quiet --strategy anneal --budgets 64,256 --budget 120)
foreach(i 0 1)
  run_cli(${anneal} --shard ${i}/2 --run-dir "${WORK}/anneal")
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy
                  "${WORK}/anneal/results.shard-${i}.msbin"
                  "${WORK}/anneal-${i}.msbin")
endforeach()
expect_refused("adaptive sharded" --archive --run-dir "${WORK}/anneal")
foreach(i 0 1)
  expect_equal_files("${WORK}/anneal-${i}.msbin"
                     "${WORK}/anneal/results.shard-${i}.msbin"
                     "a refused --archive changed shard ${i}'s log")
endforeach()
if(EXISTS "${WORK}/anneal/archive.msca")
  message(FATAL_ERROR "a refused --archive left an archive.msca")
endif()
run_cli(${anneal} --shard 0/2 --resume "${WORK}/anneal")
if(NOT out MATCHES "resume: seeded ([0-9]+) design points" OR
   CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "shard 0 resumed without seeding from its log: ${out}")
endif()
if(NOT out MATCHES "log: 0 fresh results appended")
  message(FATAL_ERROR "a fully spent shard spent again on resume: ${out}")
endif()

# Four exhaustive shards fold into the archive a 1-shard run folds to.
foreach(i 0 1 2 3)
  run_cli(${spec} --shard ${i}/4 --run-dir "${WORK}/shards"
          --out "${WORK}/shards")
endforeach()
run_cli(${spec} --shard 0/1 --run-dir "${WORK}/shards_ref"
        --out "${WORK}/shards_ref")
file(READ "${WORK}/shards/meta.json" sharded_meta)
if(NOT sharded_meta MATCHES ";shards=4")
  message(FATAL_ERROR "a sharded run recorded no shard count: ${sharded_meta}")
endif()
# A source recorded under another configuration is refused before
# anything is written.
expect_refused("different configuration" --archive --run-dir "${WORK}/shards"
               --merge-from "${WORK}/twin_apps")
if(EXISTS "${WORK}/shards/archive.msca")
  message(FATAL_ERROR "a refused --merge-from left an archive.msca")
endif()
run_cli(--archive --run-dir "${WORK}/shards")
run_cli(--archive --run-dir "${WORK}/shards_ref")
expect_equal_files("${WORK}/shards/archive.msca"
                   "${WORK}/shards_ref/archive.msca"
                   "4 folded shards vs a folded 1-shard run")
file(GLOB leftover_logs "${WORK}/shards/results*")
if(leftover_logs)
  message(FATAL_ERROR "--archive left result logs: ${leftover_logs}")
endif()
file(READ "${WORK}/shards/meta.json" folded_meta)
if(folded_meta MATCHES ";shards=")
  message(FATAL_ERROR "--archive kept the shard count: ${folded_meta}")
endif()
# A directory archived by an older build kept its shard count: a shard
# resume is refused with the way out, and --archive then drops it.
file(WRITE "${WORK}/shards/meta.json" "${sharded_meta}")
expect_refused("resume without --shard" ${spec} --shard 1/4
               --resume "${WORK}/shards" --out "${WORK}/shards")
run_cli(--archive --run-dir "${WORK}/shards")
file(READ "${WORK}/shards/meta.json" refolded_meta)
if(NOT refolded_meta STREQUAL folded_meta)
  message(FATAL_ERROR "--archive on a kept-token archive left "
                      "${refolded_meta}, not ${folded_meta}")
endif()
run_cli(${spec} --resume "${WORK}/shards" --out "${WORK}/shards")
if(NOT out MATCHES "; 0 fresh, ")
  message(FATAL_ERROR "the folded shards resumed with fresh evaluations: "
                      "${out}")
endif()

file(REMOVE_RECURSE "${WORK}")
