# ctest smoke for the attribution pipeline: record a wait-attribution
# sidecar from a real run (sweep --attr-json over the bundled miniature
# SWF trace), then drive dmr_explain through its query surface — the
# summary, one concrete --job breakdown, --top-waits and
# --critical-path, then a sidecar with a malformed \u escape, which must
# be refused with exit 1.  Invoked as
#   cmake -DSWEEP=<sweep binary> -DDMR_EXPLAIN=<dmr_explain binary>
#         -DSWF=<mini.swf> -P explain_smoke.cmake

set(attr_out "${CMAKE_CURRENT_BINARY_DIR}/explain_smoke_attr.json")
file(REMOVE "${attr_out}")

execute_process(COMMAND ${SWEEP} smoke --swf ${SWF} --attr-json ${attr_out}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --attr-json exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT EXISTS "${attr_out}")
  message(FATAL_ERROR "sweep --attr-json did not write ${attr_out}")
endif()

# Summary mode: job count, makespan, cause table.
execute_process(COMMAND ${DMR_EXPLAIN} ${attr_out}
                OUTPUT_VARIABLE summary
                ERROR_VARIABLE serr
                RESULT_VARIABLE src)
if(NOT src EQUAL 0)
  message(FATAL_ERROR "dmr_explain summary failed (${src}):\n${serr}")
endif()
if(NOT summary MATCHES "wait seconds by cause")
  message(FATAL_ERROR "summary missing the cause table:\n${summary}")
endif()

# Pick the longest-waiting job from --top-waits, then demand a concrete
# named cause with seconds from --job on it.
execute_process(COMMAND ${DMR_EXPLAIN} ${attr_out} --top-waits 3
                OUTPUT_VARIABLE top
                RESULT_VARIABLE trc)
if(NOT trc EQUAL 0)
  message(FATAL_ERROR "dmr_explain --top-waits failed (${trc})")
endif()
string(REGEX MATCH "\n([0-9]+) " top_job "${top}")
set(top_job_id "${CMAKE_MATCH_1}")
if(NOT top_job_id)
  message(FATAL_ERROR "--top-waits listed no jobs:\n${top}")
endif()
execute_process(COMMAND ${DMR_EXPLAIN} ${attr_out} --job ${top_job_id}
                OUTPUT_VARIABLE job
                RESULT_VARIABLE jrc)
if(NOT jrc EQUAL 0)
  message(FATAL_ERROR "dmr_explain --job ${top_job_id} failed (${jrc})")
endif()
if(NOT job MATCHES "wait decomposition")
  message(FATAL_ERROR "--job output names no decomposition:\n${job}")
endif()
if(NOT job MATCHES "(insufficient-idle|easy-reservation|partition-pinned|draining-wait|shrink-pending)")
  message(FATAL_ERROR "--job output names no concrete cause:\n${job}")
endif()

execute_process(COMMAND ${DMR_EXPLAIN} ${attr_out} --critical-path
                OUTPUT_VARIABLE path
                RESULT_VARIABLE prc)
if(NOT prc EQUAL 0)
  message(FATAL_ERROR "dmr_explain --critical-path failed (${prc})")
endif()
if(NOT path MATCHES "makespan")
  message(FATAL_ERROR "--critical-path missing the makespan bound:\n${path}")
endif()

# --compare of a sidecar against itself: zero deltas, no moved jobs.
execute_process(COMMAND ${DMR_EXPLAIN} --compare ${attr_out} ${attr_out}
                OUTPUT_VARIABLE cmp
                RESULT_VARIABLE crc)
if(NOT crc EQUAL 0)
  message(FATAL_ERROR "dmr_explain --compare failed (${crc})")
endif()
if(NOT cmp MATCHES "no job's wait moved")
  message(FATAL_ERROR "self-compare reported phantom movement:\n${cmp}")
endif()

# A malformed sidecar is refused with a located error and exit 1, not a
# crash: a \u escape needs four hex digits.
set(bad_sidecar "${CMAKE_CURRENT_BINARY_DIR}/explain_smoke_bad.json")
file(WRITE "${bad_sidecar}" [=[{"jobs":[{"name":"\uZZZZ"}]}]=])
execute_process(COMMAND ${DMR_EXPLAIN} ${bad_sidecar}
                OUTPUT_VARIABLE bad_out
                ERROR_VARIABLE bad_err
                RESULT_VARIABLE bad_rc)
if(NOT bad_rc EQUAL 1)
  message(FATAL_ERROR "dmr_explain on a \\uZZZZ sidecar exited with "
                      "'${bad_rc}', expected 1\nstderr:\n${bad_err}")
endif()
if(NOT bad_err MATCHES "offset")
  message(FATAL_ERROR "dmr_explain named no offset for the bad sidecar:\n"
                      "${bad_err}")
endif()

message(STATUS "explain_smoke: job ${top_job_id} explained; "
               "critical path and self-compare clean; bad sidecar refused")
