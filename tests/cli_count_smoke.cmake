# ctest: command-line counts never wrap.  `sweep jobs=4294967297`
# (2^32 + 1, which a static_cast<int> would turn into 1) must exit with
# status 2 and name the argument.  Invoked as
#   cmake -DSWEEP=<sweep binary> -P cli_count_smoke.cmake

execute_process(COMMAND ${SWEEP} jobs=4294967297
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
          "sweep jobs=4294967297 exited with ${rc}, expected 2\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "jobs: '4294967297' is not an integer")
  message(FATAL_ERROR "the rejection does not name the argument:\n${err}")
endif()
