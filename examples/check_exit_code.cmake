# Runs BIN with ARGS (one space-separated string) and fails unless it exits
# with EXPECT and its combined output matches MATCH. A non-empty SETUP is a
# shell command run first; it must succeed.
#
#   cmake -DBIN=<exe> "-DARGS=--flag=x" -DEXPECT=2 -DMATCH=usage: -P check_exit_code.cmake
if(SETUP)
  execute_process(COMMAND sh -c "${SETUP}" RESULT_VARIABLE setup_rc)
  if(NOT setup_rc EQUAL 0)
    message(FATAL_ERROR "setup failed (${setup_rc}): ${SETUP}")
  endif()
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${BIN} ${ARGS}: output does not match '${MATCH}'\n${out}${err}")
endif()
