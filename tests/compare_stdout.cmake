# Runs PROGRAM and requires its stdout to equal the EXPECTED file byte for
# byte.  On a mismatch the output is written to ACTUAL so it can be diffed.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P compare_stdout.cmake
execute_process(COMMAND "${PROGRAM}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}; "
                      "it was written to ${ACTUAL}")
endif()
