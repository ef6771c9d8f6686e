# Regression driver for the CLI's unknown-flag path: the real explore_cli
# binary, run with a typo'd option, must exit nonzero and print a usage
# message (the unknown name plus the option list) on stderr, the retired
# --cost included; a flag used without the action it belongs to
# (--merge-from without --archive) must exit 1 naming it.  Invoked by
# ctest as:  cmake -DCLI=<path-to-explore_cli> -P expect_unknown_flag.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to explore_cli>")
endif()

execute_process(
    COMMAND ${CLI} --no-such-flag
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(status EQUAL 0)
  message(FATAL_ERROR "explore_cli accepted an unknown flag (exit 0)")
endif()
if(NOT err MATCHES "unknown option --no-such-flag")
  message(FATAL_ERROR "stderr does not name the unknown option: ${err}")
endif()
if(NOT err MATCHES "Options:")
  message(FATAL_ERROR "stderr lacks the usage/option list: ${err}")
endif()
if(NOT err MATCHES "--help")
  message(FATAL_ERROR "stderr does not point at --help: ${err}")
endif()

# The value-typo path must stay a loud failure too.
execute_process(
    COMMAND ${CLI} --threads not-a-number
    RESULT_VARIABLE status2
    ERROR_VARIABLE err2)
if(status2 EQUAL 0)
  message(FATAL_ERROR "explore_cli accepted a non-numeric --threads")
endif()
if(NOT err2 MATCHES "expects an integer")
  message(FATAL_ERROR "stderr does not explain the bad value: ${err2}")
endif()

# --cost-metric is the one cost knob; the retired --cost is unknown.
execute_process(
    COMMAND ${CLI} --cost area --quiet
    RESULT_VARIABLE status4
    ERROR_VARIABLE err4)
if(NOT status4 EQUAL 1 OR NOT err4 MATCHES "unknown option --cost")
  message(FATAL_ERROR "--cost area exited ${status4}: ${err4}")
endif()

# --merge-from only means something to --archive: alone it must fail
# naming the flag instead of running a sweep that ignores it.
execute_process(
    COMMAND ${CLI} --merge-from /nonexistent --quiet
    RESULT_VARIABLE status3
    OUTPUT_VARIABLE out3
    ERROR_VARIABLE err3)
if(NOT status3 EQUAL 1)
  message(FATAL_ERROR "--merge-from without --archive exited ${status3}, "
                      "not 1: ${out3}")
endif()
if(NOT err3 MATCHES "--merge-from")
  message(FATAL_ERROR "stderr does not name --merge-from: ${err3}")
endif()
