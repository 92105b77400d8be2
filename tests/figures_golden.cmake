# Runs the figures binary and compares its whole stdout byte for byte with a
# committed golden file:
#
#   cmake -DFIGURES=<binary> -DARGS="<name>... key=value..." \
#         -DGOLDEN=<file> -P figures_golden.cmake
#
# On a mismatch the actual output is left in figures_actual.txt in the
# working directory for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${FIGURES}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "figures exited with '${rc}'")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE figures_actual.txt "${actual}")
  message(FATAL_ERROR "figures stdout differs from ${GOLDEN}; "
                      "actual output written to figures_actual.txt")
endif()
