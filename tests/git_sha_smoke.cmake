# ctest: bench rows name the commit the binary was built from.  The
# git_sha on `sweep smoke`'s summary line must be what `git rev-parse
# --short=12 HEAD` prints for the source tree; a sha read only when CMake
# configured went stale at the first commit built without
# reconfiguring.  Outside a git checkout there is no HEAD to compare
# with, and the test passes with a skip message.  Invoked as
#   cmake -DSWEEP=<sweep> -DSOURCE_DIR=<repo> -P git_sha_smoke.cmake

execute_process(COMMAND git rev-parse --short=12 HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE head
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE git_rc
                ERROR_QUIET)
if(NOT git_rc EQUAL 0 OR head STREQUAL "")
  message(STATUS "skipped: ${SOURCE_DIR} is not a git checkout")
  return()
endif()

execute_process(COMMAND ${SWEEP} smoke
                OUTPUT_VARIABLE out
                ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep smoke exited with ${rc}")
endif()
string(REGEX MATCH "\"summary\":true[^\n]*" summary "${out}")
if(NOT summary MATCHES "\"git_sha\":\"([^\"]*)\"")
  message(FATAL_ERROR "no git_sha on the summary line:\n${summary}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL head)
  message(FATAL_ERROR "sweep stamps git_sha ${CMAKE_MATCH_1}, "
                      "but HEAD is ${head}")
endif()
