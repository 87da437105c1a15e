# ctest for the bench_validate --regress guard on two fixture
# trajectories that share one history: an old best row far above the
# rest, a row without jobs_per_second and rows of another workload, then
# five recent fig10 rows around 1000 jobs/s.  A fresh 800 jobs/s row must
# be reported as regressed and a fresh 900 jobs/s row as ok (the best
# ever recorded row would have flagged both).  The guard is warn-only, so
# both runs must exit 0.  Invoked as
#   cmake -DBENCH_VALIDATE=<bench_validate binary> -DDATA=<tests/data>
#         -P bench_regress_smoke.cmake

foreach(verdict regressed ok)
  execute_process(
    COMMAND ${BENCH_VALIDATE} --regress ${DATA}/bench_regress_${verdict}.json
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_validate --regress exited with ${rc}\n${out}${err}")
  endif()
  if(NOT out MATCHES "median 1000 jobs/s of the last 5 prior row")
    message(FATAL_ERROR "wrong baseline for the ${verdict} fixture:\n${out}")
  endif()
  if(NOT out MATCHES "verdict: ${verdict}\n")
    message(FATAL_ERROR "expected verdict '${verdict}':\n${out}")
  endif()
endforeach()
