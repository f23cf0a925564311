# Feeds a document of 200,000 nested '[' to a tool and requires a clean
# JSON parse error: exit code 2 and a line/column message on stderr, not
# a stack overflow in the recursive-descent parser.
#
#   cmake -DTOOL=<urmem-run|urmem-merge> -DMODE=<run|merge> -DWORK=<dir>
#         -P expect_parse_error.cmake
#
# MODE=run passes the file as the spec; MODE=merge drops it into a
# checkpoint directory as its manifest.json and merges that directory.
string(REPEAT "[" 200000 deep)
file(MAKE_DIRECTORY "${WORK}")
if(MODE STREQUAL "run")
  file(WRITE "${WORK}/deep.json" "${deep}")
  set(input "${WORK}/deep.json")
elseif(MODE STREQUAL "merge")
  file(WRITE "${WORK}/manifest.json" "${deep}")
  set(input "${WORK}")
else()
  message(FATAL_ERROR "MODE must be run or merge, got '${MODE}'")
endif()
execute_process(COMMAND "${TOOL}" "${input}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES "line [0-9]+, column [0-9]+")
  message(FATAL_ERROR "no line/column in the diagnostic: ${err}")
endif()
