# Run an example or bench and compare its stdout, and any files it
# writes, byte for byte with goldens.
#
#   cmake -DEXE=<binary> [-DGOLDEN=<file>] [-DARGS=<a>|<b>|...]
#         [-DWORKDIR=<dir> -DFILES=<written>|<golden>|...]
#         -P check_output.cmake
#
# GOLDEN pins stdout; without it stdout is not compared. ARGS are the
# program's arguments, separated by '|'. FILES lists (written file,
# golden) pairs, also separated by '|'; the written names are relative
# to WORKDIR, which is emptied before the run so that each test writes
# into its own directory and `ctest -j` stays hermetic.
#
# On a mismatch the actual output is printed (stdout) or named (files)
# so a deliberate change can be re-pinned by copying it over the golden.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" files "${FILES}")
if(NOT WORKDIR)
    set(WORKDIR ".")
endif()
if(files)
    file(REMOVE_RECURSE "${WORKDIR}")
    file(MAKE_DIRECTORY "${WORKDIR}")
endif()
execute_process(COMMAND "${EXE}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with status ${status}")
endif()
if(GOLDEN)
    file(READ "${GOLDEN}" expected)
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR
                "stdout of ${EXE} differs from ${GOLDEN}; actual output:\n"
                "${actual}")
    endif()
endif()
while(files)
    list(POP_FRONT files written golden)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${WORKDIR}/${written}" "${golden}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
                "${WORKDIR}/${written} written by ${EXE} differs from "
                "${golden}")
    endif()
endwhile()
