# renoc_sweep command line: a malformed number is a usage error (exit 1)
# before any scenario runs, never a silently truncated value. Run as
#   cmake -DRENOC_SWEEP=<renoc_sweep> -DWORK_DIR=<dir> -P <this file>
if(NOT RENOC_SWEEP OR NOT WORK_DIR)
  message(FATAL_ERROR "set RENOC_SWEEP and WORK_DIR")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(common --harness ber --out "${WORK_DIR}/SWEEP.json"
    --ckpt-dir "${WORK_DIR}/ckpt")

# Fails unless renoc_sweep with `common` plus ARGN exits with `want`.
function(expect_exit want)
  execute_process(COMMAND "${RENOC_SWEEP}" ${common} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "${want}")
    list(JOIN ARGN " " shown)
    message(FATAL_ERROR
      "renoc_sweep ${shown}: exit code ${rc}, expected ${want}")
  endif()
endfunction()

expect_exit(1 --seed banana)
expect_exit(1 --seed 12x)
expect_exit(1 --seed -1)
expect_exit(1 --seed 99999999999999999999)
expect_exit(1 --shards 2x)
expect_exit(1 --shards 4294967297)
expect_exit(1 --timeout-ms 1e3)
expect_exit(1 --retries " 2")
expect_exit(1 --inject-crash 1:)
expect_exit(1 --inject-crash :1)
expect_exit(1 --inject-crash 0:1x)
expect_exit(1 --shards 2 --inject-crash 2:1)
# In range for the parser but past the bounds that keep the supervisor's
# attempt count and deadline arithmetic from overflowing.
expect_exit(1 --retries 1001)
expect_exit(1 --retries 2147483647)
expect_exit(1 --timeout-ms 604800001)
expect_exit(1 --timeout-ms 10000000000000)
expect_exit(1 --backoff-ms 3600001)
if(EXISTS "${WORK_DIR}/SWEEP.json" OR EXISTS "${WORK_DIR}/ckpt")
  message(FATAL_ERROR "a rejected invocation ran the sweep")
endif()

# Every numeric flag well formed, the bounds included; the injected crash
# is retried, so the sweep still resolves completely.
expect_exit(0 --seed 5 --shards 2 --threads-per-shard 1
  --checkpoint-every 8 --timeout-ms 604800000 --retries 1000 --backoff-ms 0
  --inject-crash 1:1)
file(REMOVE_RECURSE "${WORK_DIR}/ckpt")
expect_exit(0 --backoff-ms 3600000)
file(REMOVE_RECURSE "${WORK_DIR}")
