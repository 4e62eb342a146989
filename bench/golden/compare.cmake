# Run one bench binary and compare its stdout byte for byte with its
# golden table.  On a difference the actual stdout is written to
# <golden name>.actual in the working directory, for diffing.
#   cmake -DBENCH=<binary> -DGOLDEN=<golden .txt> -P compare.cmake
execute_process(COMMAND ${BENCH}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${out}")
    message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; actual "
                        "output in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
