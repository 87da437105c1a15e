# ctest: every figure and table bench of the paper's evaluation runs to
# completion and prints its table, with --quick wherever a bench takes it.
# fig01_cr_vs_dmr is left out: it spawns real rank threads for seconds.
# Invoked as
#   cmake -DBENCH_DIR=<directory holding the bench executables>
#         -P figures_smoke.cmake

set(failures "")

# expect_output(<bench> [args...])
function(expect_output bench)
  string(JOIN " " command ${bench} ${ARGN})
  execute_process(COMMAND ${BENCH_DIR}/${bench} ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    set(failures "${failures}\n${command}: exited with ${rc}\nstderr:\n${err}"
        PARENT_SCOPE)
  elseif(out STREQUAL "")
    set(failures "${failures}\n${command}: printed nothing" PARENT_SCOPE)
  endif()
endfunction()

expect_output(fig03_sync_fixed_vs_flexible)
expect_output(fig04_timeline_10jobs)
expect_output(fig05_timeline_25jobs)
expect_output(fig06_timeline_async)
expect_output(fig07_async_fixed_vs_flexible)
expect_output(fig08_heterogeneous_rates)
expect_output(fig09_inhibitor_periods)
expect_output(fig10_workload_makespan --quick)
expect_output(fig11_waiting_time --quick)
expect_output(fig12_timeline_50jobs --quick)
expect_output(table1_app_config)
expect_output(table2_workload_summary --quick)
expect_output(ablation_policy --quick)

if(failures)
  message(FATAL_ERROR "figures smoke failed:${failures}")
endif()
