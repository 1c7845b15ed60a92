# Runs PROGRAM (with the space-separated ARGS) and fails unless it exits 0
# and its stdout equals the file EXPECTED byte for byte. On a mismatch the
# output is kept in ACTUAL and a unified diff is printed.
#
#   cmake -DPROGRAM=... -DARGS=... -DEXPECTED=... -DACTUAL=... -P check_output.cmake
separate_arguments(program_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${program_args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} output differs from ${EXPECTED}; "
                      "regenerate it only for a declared cost-model change")
endif()
