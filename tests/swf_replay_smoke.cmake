# ctest smoke for SWF trace replay: run the bundled miniature trace
# through the sweep harness in federation mode and sanity-check the
# JSON-lines output; then check that a long --members mix still yields
# whole JSON lines.  Invoked as
#   cmake -DSWEEP=<sweep binary> -DSWF=<mini.swf> -P swf_replay_smoke.cmake

execute_process(COMMAND ${SWEEP} smoke clusters=2 --swf ${SWF}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --swf exited with ${rc}\nstderr:\n${err}")
endif()

# Every non-empty stdout line must be one JSON object.
string(REPLACE "\n" ";" lines "${out}")
set(scenario_lines 0)
foreach(line IN LISTS lines)
  if(line STREQUAL "")
    continue()
  endif()
  if(NOT line MATCHES "^\\{.*\\}$")
    message(FATAL_ERROR "not a JSON line: ${line}")
  endif()
  if(line MATCHES "\"swf\":")
    math(EXPR scenario_lines "${scenario_lines} + 1")
  endif()
endforeach()

# The 2-member x 2-placement federation smoke grid: >= 2 scenario lines,
# each carrying per-member metrics and the shaping telemetry.
if(scenario_lines LESS 2)
  message(FATAL_ERROR "expected >= 2 swf scenario lines, got "
                      "${scenario_lines}:\n${out}")
endif()
foreach(field "\"swf_parsed\":24" "\"swf_kept\":21" "\"swf_dropped\":3"
        "\"swf_clamped\":" "\"utilization_alpha\":" "\"placements_beta\":"
        "\"summary\":true")
  if(NOT out MATCHES "${field}")
    message(FATAL_ERROR "missing ${field} in sweep output:\n${out}")
  endif()
endforeach()

# The shaper must announce what it dropped on stderr — truncation is
# never silent.
if(NOT err MATCHES "dropped 3")
  message(FATAL_ERROR "missing shaping summary on stderr:\n${err}")
endif()

# The summary line embeds the --members spec, so a long mix (40 named
# groups, 719 characters) must still end in a closed JSON object.
set(members "")
foreach(index RANGE 10 49)
  list(APPEND members "1x8:name=member${index}")
endforeach()
string(JOIN "," members ${members})
execute_process(COMMAND ${SWEEP} smoke clusters=2 --members "${members}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --members exited with ${rc}\nstderr:\n${err}")
endif()
string(REPLACE "\n" ";" lines "${out}")
foreach(line IN LISTS lines)
  if(NOT line STREQUAL "" AND NOT line MATCHES "^\\{.*\\}$")
    message(FATAL_ERROR "not a JSON line: ${line}")
  endif()
endforeach()
if(NOT out MATCHES "\"summary\":true,[^\n]*member49\"")
  message(FATAL_ERROR "summary line lost the member mix:\n${out}")
endif()

message(STATUS "swf_replay_smoke: ${scenario_lines} scenario lines OK")
