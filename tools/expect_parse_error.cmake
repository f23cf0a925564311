# Runs a tool on malformed input and requires a clean rejection: exit
# code 2 and a stderr diagnostic matching EXPECT — not a crash, and not
# a run that silently ignores the input.
#
#   cmake -DTOOL=<exe> -DMODE=<run|merge|flag> [-DWORK=<dir>]
#         [-DARGS=<arg;...>] [-DEXPECT=<regex>] -P expect_parse_error.cmake
#
# MODE=run feeds a document of 200,000 nested '[' as the spec file;
# MODE=merge drops it into checkpoint directory WORK as its
# manifest.json and merges that directory. Both expect a line/column
# message (a stack overflow in the recursive-descent parser would
# crash instead). MODE=flag passes ARGS verbatim; EXPECT names the
# flag the diagnostic must blame.
if(MODE STREQUAL "flag")
  set(input ${ARGS})
else()
  string(REPEAT "[" 200000 deep)
  file(MAKE_DIRECTORY "${WORK}")
  if(MODE STREQUAL "run")
    file(WRITE "${WORK}/deep.json" "${deep}")
    set(input "${WORK}/deep.json")
  elseif(MODE STREQUAL "merge")
    file(WRITE "${WORK}/manifest.json" "${deep}")
    set(input "${WORK}")
  else()
    message(FATAL_ERROR "MODE must be run, merge or flag, got '${MODE}'")
  endif()
  set(EXPECT "line [0-9]+, column [0-9]+")
endif()
execute_process(COMMAND "${TOOL}" ${input}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "diagnostic does not match '${EXPECT}': ${err}")
endif()
