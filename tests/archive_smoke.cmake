# ctest smoke for the archive-scale replay path: synthesize a 100k-job
# SWF trace with make_swf, check its bytes against a pinned sha256, then
# replay it through swf_replay with the runtime invariant auditor
# attached.  Deterministic end to end (the trace is fully determined by
# the make_swf flags), so a hang or an auditor violation here points at
# the event engine, not the workload.
# Invoked as
#   cmake -DMAKE_SWF=<make_swf> -DSWF_REPLAY=<swf_replay>
#         -DWORK_DIR=<build dir> -P archive_smoke.cmake

set(trace "${WORK_DIR}/archive_smoke.swf")

execute_process(COMMAND ${MAKE_SWF} --jobs 100000 --nodes 1024 --seed 1
                        -o ${trace}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_swf exited with ${rc}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "make_swf: 100000 jobs on 1024 nodes")
  message(FATAL_ERROR "missing make_swf summary on stderr:\n${err}")
endif()
# The digest was captured from the stream-based SWF writer the in-place
# one replaced: a changed digit in the writer or the generator shows here.
file(SHA256 ${trace} digest)
set(expected_digest
    "5e3e7a791c0db3fbd059409f65022ff797890a7a16553a8f9b829515d6f0f9b2")
if(NOT digest STREQUAL expected_digest)
  message(FATAL_ERROR "make_swf wrote different bytes: sha256 ${digest}, "
                      "expected ${expected_digest}")
endif()

execute_process(COMMAND ${SWF_REPLAY} ${trace} --nodes 1024 --audit
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swf_replay exited with ${rc}\nstderr:\n${err}")
endif()

# All 100k records are completed jobs on a machine they fit — the shaper
# must keep every one of them, and both audited replays must be clean.
if(NOT out MATCHES "parsed 100000 jobs")
  message(FATAL_ERROR "expected 100000 parsed jobs:\n${out}")
endif()
if(NOT out MATCHES "kept 100000")
  message(FATAL_ERROR "shaper dropped records from a complete trace:\n${out}")
endif()
foreach(label "audit \\(fixed\\)" "audit \\(flexible\\)")
  if(NOT out MATCHES "${label}: *\\{\"report\":\"chk\",\"ok\":true")
    message(FATAL_ERROR "missing clean ${label} report:\n${out}")
  endif()
endforeach()

file(REMOVE ${trace})
message(STATUS "archive_smoke: 100000-job replay audited clean")
