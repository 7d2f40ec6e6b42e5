# Run an example and compare its stdout byte for byte with a golden.
#
#   cmake -DEXE=<binary> -DGOLDEN=<file> -P check_output.cmake
#
# On a mismatch the actual output is printed so a deliberate change can
# be re-pinned by copying it over the golden.
execute_process(COMMAND "${EXE}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "stdout of ${EXE} differs from ${GOLDEN}; actual output:\n"
            "${actual}")
endif()
