# ctest: command-line numbers are rejected, never wrapped, truncated,
# silently defaulted or thrown past main.  Every row of the table below
# must exit with status 2 and name its argument on stderr.  Invoked as
#   cmake -DSWEEP=<sweep> -DDMRSIM=<dmrsim> -DENGINE_BENCH=<engine_bench>
#         -DMAKE_SWF=<make_swf> -P cli_count_smoke.cmake

set(failures "")

# expect_rejected(<stderr regex> <command> [args...])
function(expect_rejected pattern)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND ${ARGN}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    set(failures "${failures}\n${command}: exited with ${rc}, expected 2\n"
                 "stderr:\n${err}" PARENT_SCOPE)
  elseif(NOT err MATCHES "${pattern}")
    set(failures "${failures}\n${command}: stderr does not match "
                 "'${pattern}':\n${err}" PARENT_SCOPE)
  endif()
endfunction()

# 2^32 + 1, which a static_cast<int> would turn into 1.
expect_rejected("jobs: '4294967297' is not an integer"
                ${SWEEP} jobs=4294967297)
# NaN slips past `load <= 0 || load > 1`.
expect_rejected("load: 'nan' is not a finite number"
                ${SWEEP} smoke load=nan)
# std::stoi threw std::invalid_argument out of main.
expect_rejected("jobs: 'abc' is not an integer" ${DMRSIM} jobs=abc)
# -5 used to mean "unset" and ran the default 20 nodes.
expect_rejected("nodes: '-5' is not an integer" ${DMRSIM} nodes=-5)
# %llu wrapped -1 to 18446744073709551615.
expect_rejected("seed: '-1' is not an integer"
                ${ENGINE_BENCH} smoke seed=-1)
# NaN passed the range check and was written as submit times.
expect_rejected("--load: 'nan' is not a finite number" ${MAKE_SWF} --load nan)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "command-line numbers accepted:${failures}")
endif()
