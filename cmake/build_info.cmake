# Writes build_info.cpp, the definition of dmr::git_sha(), from the
# source tree's current HEAD.  The dmr library's build runs it every
# time, so a build after a commit stamps the new sha; configure_file
# rewrites OUTPUT only when its text changes, so an unchanged HEAD
# recompiles and relinks nothing.  Invoked as
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<build_info.cpp> -P build_info.cmake
execute_process(COMMAND git rev-parse --short=12 HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE DMR_GIT_SHA
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET)
if(NOT DMR_GIT_SHA)
  set(DMR_GIT_SHA "unknown")
endif()
configure_file(${SOURCE_DIR}/cmake/build_info.cpp.in ${OUTPUT} @ONLY)
