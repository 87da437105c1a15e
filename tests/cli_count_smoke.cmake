# ctest: command-line numbers and options are rejected, never wrapped,
# truncated, silently defaulted or thrown past main.  Every row of the
# table below must exit with status 2 and name its argument (or the
# member-mix group, the SWF line and field, or the unreadable SWF path)
# on stderr; the last check runs an accepted count and reads it back from
# the rows.  Invoked as
#   cmake -DSWEEP=<sweep> -DDMRSIM=<dmrsim> -DMAKE_SWF=<make_swf>
#         -P cli_count_smoke.cmake

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
expect_rejected("seed: '-1' is not an integer" ${DMRSIM} seed=-1)
expect_rejected("seed: '-1' is not an integer" ${MAKE_SWF} --seed -1)
# NaN passed the range check and was written as submit times.
expect_rejected("--load: 'nan' is not a finite number" ${MAKE_SWF} --load nan)
# An unknown workload ran fs, a switch other than 1 turned it off, and an
# unknown key or a bare word was skipped with a warning.
expect_rejected("workload=MIX: not fs or mix" ${DMRSIM} workload=MIX)
expect_rejected("flexible: 'yes' is not an integer" ${DMRSIM} flexible=yes)
expect_rejected("jobz=5: unknown option" ${DMRSIM} jobz=5)
expect_rejected("jobs5: not a key=value argument" ${DMRSIM} jobs5)

# Member-mix speeds must be finite and in [0.01, 100]: an infinite
# member took every job, 1e-300 gave a 2.65e300 s makespan and a
# subnormal one aborted the engine with a non-finite time.  Counts take
# no sign and no whitespace.  A group may not repeat a partition name:
# both partitions recorded into one utilization series, so every line
# carried its utilization key twice.
foreach(members
    "1x16:speed=inf,1x16" "1x16,1x16:speed=1e-300"
    "1x16:speed=0x1p-1070,1x16" "1x16,1xa=8@inf+b=8" "1x+16,1x16"
    " 1x16,1x16" "1xa=8+a=8")
  expect_rejected("member mix: group [01]"
                  ${SWEEP} smoke clusters=2 --members "${members}")
endforeach()

# SWF integers outside their field's type: 4294967304 processors wrapped
# to an 8-processor job, and 1e300 became 0 and was dropped as sizeless.
set(record_tail "-1 1 1 1 1 1 1 -1 0")
foreach(row
    "used_procs|1 0 0 10 4294967304 -1 -1 4294967304 60 ${record_tail}"
    "requested_procs|1 0 0 10 2 -1 -1 1e300 60 ${record_tail}")
  string(REPLACE "|" ";" row "${row}")
  list(GET row 0 field)
  list(GET row 1 record)
  set(swf "${CMAKE_CURRENT_BINARY_DIR}/cli_count_${field}.swf")
  file(WRITE "${swf}" "; MaxNodes: 16\n${record}\n")
  expect_rejected("line 2: field [0-9]+ \\(${field}\\) is out of range"
                  ${SWEEP} smoke --swf "${swf}")
endforeach()

# A directory opens but cannot be read; the failed read used to end the
# input, and the sweep replayed an empty trace.
set(swf_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_count_dir.swf")
file(MAKE_DIRECTORY "${swf_dir}")
expect_rejected("cannot read .*cli_count_dir\\.swf"
                ${SWEEP} smoke --swf "${swf_dir}")

# An accepted count is honoured, not replaced: smoke mode ran two
# members whatever clusters=N said, under a summary row naming N.
execute_process(COMMAND ${SWEEP} smoke clusters=3
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  string(APPEND failures
         "\n${SWEEP} smoke clusters=3: exited with ${rc}\nstderr:\n${err}")
elseif(NOT out MATCHES "\"cluster\":\"fed3\",\"clusters\":3"
       OR out MATCHES "\"clusters\":2")
  string(APPEND failures "\n${SWEEP} smoke clusters=3: rows do not all read "
         "\"cluster\":\"fed3\",\"clusters\":3:\n${out}")
endif()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "command-line numbers accepted or replaced:${failures}")
endif()
