# End-to-end determinism check for the sestd analysis service:
#   1. a scripted request sequence must succeed (every response ok:true);
#   2. warm replay: running the sequence twice in one session must
#      produce byte-for-byte the cold output twice — cache hits may
#      never change a response byte;
#   3. --jobs 8, --no-cache, and a tiny --cache-bytes budget (constant
#      eviction) must all produce byte-identical output;
#   4. {"op":"stats"} answers live counters and {"op":"shutdown"} ends
#      the session with exit code 0;
#   5. requests written at once are served in batches deeper than one;
#   6. --trace keeps one service.request span per request;
#   7. a line over the 16 MiB cap gets an in-band error, in request
#      order, and the session goes on.
# Run as: cmake -DSESTD=<path> -DWORKDIR=<dir> -P check_sestd.cmake

set(SRC_A "int triangle(int n) { int s = 0; int i; for (i = 1; i <= n; i++) s += i; return s; } int main() { int n = read_int(); print_int(triangle(n)); return 0; }")
# One token differs from SRC_A (i <= n becomes i < n).
set(SRC_B "int triangle(int n) { int s = 0; int i; for (i = 1; i < n; i++) s += i; return s; } int main() { int n = read_int(); print_int(triangle(n)); return 0; }")

set(REQS "")
string(APPEND REQS "{\"id\":1,\"op\":\"parse\",\"source\":\"${SRC_A}\"}\n")
string(APPEND REQS "{\"id\":2,\"op\":\"estimate\",\"source\":\"${SRC_A}\",\"blocks\":true}\n")
string(APPEND REQS "{\"id\":3,\"op\":\"estimate\",\"source\":\"${SRC_A}\",\"options\":{\"intra\":\"markov\",\"loop_iterations\":10}}\n")
string(APPEND REQS "{\"id\":4,\"op\":\"estimate\",\"source\":\"${SRC_B}\"}\n")
string(APPEND REQS "{\"id\":5,\"op\":\"optimize\",\"source\":\"${SRC_A}\",\"passes\":\"all\"}\n")
string(APPEND REQS "{\"id\":6,\"op\":\"report\",\"source\":\"${SRC_A}\",\"input\":\"12\"}\n")
string(APPEND REQS "{\"id\":7,\"op\":\"tune\",\"source\":\"${SRC_A}\",\"input\":\"12\",\"budget\":3}\n")
string(APPEND REQS "{\"id\":8,\"op\":\"estimate\",\"source\":\"does not parse(\"}\n")

file(WRITE ${WORKDIR}/sestd_reqs.jsonl "${REQS}")
file(WRITE ${WORKDIR}/sestd_reqs2x.jsonl "${REQS}${REQS}")

function(run_sestd OUTFILE INFILE)
  execute_process(
    COMMAND ${SESTD} ${ARGN}
    INPUT_FILE ${INFILE}
    OUTPUT_FILE ${OUTFILE}
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "sestd ${ARGN} exited ${RC}:\n${ERR}")
  endif()
endfunction()

run_sestd(${WORKDIR}/sestd_once.out ${WORKDIR}/sestd_reqs.jsonl)
run_sestd(${WORKDIR}/sestd_twice.out ${WORKDIR}/sestd_reqs2x.jsonl)
run_sestd(${WORKDIR}/sestd_twice_j8.out ${WORKDIR}/sestd_reqs2x.jsonl
          --jobs 8)
run_sestd(${WORKDIR}/sestd_twice_nocache.out ${WORKDIR}/sestd_reqs2x.jsonl
          --no-cache)
run_sestd(${WORKDIR}/sestd_twice_tiny.out ${WORKDIR}/sestd_reqs2x.jsonl
          --cache-bytes 8192 --cache-shards 1)

# Requests 1-7 must succeed; request 8 must fail cleanly.
file(STRINGS ${WORKDIR}/sestd_once.out LINES)
list(LENGTH LINES NLINES)
if(NOT NLINES EQUAL 8)
  message(FATAL_ERROR "expected 8 responses, got ${NLINES}")
endif()
set(I 0)
foreach(LINE ${LINES})
  math(EXPR I "${I} + 1")
  if(I LESS 8)
    if(NOT LINE MATCHES "\"ok\":true")
      message(FATAL_ERROR "response ${I} not ok: ${LINE}")
    endif()
    if(I EQUAL 7 AND NOT LINE MATCHES "sest-tune-report/1")
      message(FATAL_ERROR "tune response missing its report: ${LINE}")
    endif()
  else()
    if(NOT LINE MATCHES "\"ok\":false.*does not parse")
      message(FATAL_ERROR "response 8 should report a parse error: ${LINE}")
    endif()
  endif()
  if(NOT LINE MATCHES "\"program_hash\":\"[0-9a-f]+\"")
    message(FATAL_ERROR "response ${I} missing program_hash: ${LINE}")
  endif()
endforeach()

# Warm replay: the doubled stream's output must be exactly the cold
# output twice.
file(READ ${WORKDIR}/sestd_once.out ONCE)
file(READ ${WORKDIR}/sestd_twice.out TWICE)
if(NOT TWICE STREQUAL "${ONCE}${ONCE}")
  message(FATAL_ERROR "warm responses differ from cold responses")
endif()

# Scheduling, cache disabling, and eviction churn must not change bytes.
foreach(VARIANT j8 nocache tiny)
  file(READ ${WORKDIR}/sestd_twice_${VARIANT}.out GOT)
  if(NOT GOT STREQUAL "${TWICE}")
    message(FATAL_ERROR
      "sestd output differs under variant '${VARIANT}'")
  endif()
endforeach()

# stats + shutdown session: live counters, then a clean exit.
file(WRITE ${WORKDIR}/sestd_ctl.jsonl
  "{\"id\":1,\"op\":\"estimate\",\"source\":\"${SRC_A}\"}\n{\"id\":2,\"op\":\"estimate\",\"source\":\"${SRC_A}\"}\n{\"id\":3,\"op\":\"stats\"}\n{\"id\":4,\"op\":\"shutdown\"}\n")
run_sestd(${WORKDIR}/sestd_ctl.out ${WORKDIR}/sestd_ctl.jsonl)
file(READ ${WORKDIR}/sestd_ctl.out CTL)
if(NOT CTL MATCHES "sest-service-stats/1")
  message(FATAL_ERROR "stats response missing schema:\n${CTL}")
endif()
if(NOT CTL MATCHES "\"response\":{\"hit\":[1-9]")
  message(FATAL_ERROR "stats response shows no response-tier hit:\n${CTL}")
endif()
if(NOT CTL MATCHES "\"shutting_down\":true")
  message(FATAL_ERROR "shutdown not acknowledged:\n${CTL}")
endif()

# Stdio batching: 64 requests written at once, then stats. Every request
# already received joins the batch, so there are fewer batches than
# requests (a reader that blocks per line would make them equal).
set(BURST "")
foreach(I RANGE 1 64)
  string(APPEND BURST "{\"id\":${I},\"op\":\"estimate\",\"source\":\"${SRC_A}\"}\n")
endforeach()
file(WRITE ${WORKDIR}/sestd_burst.jsonl "${BURST}{\"op\":\"stats\"}\n")
run_sestd(${WORKDIR}/sestd_burst.out ${WORKDIR}/sestd_burst.jsonl --jobs 2)
file(READ ${WORKDIR}/sestd_burst.out BURST_OUT)
if(NOT BURST_OUT MATCHES "\"service\\.batches\":([0-9]+)")
  message(FATAL_ERROR "stats shows no service.batches counter:\n${BURST_OUT}")
endif()
set(BATCHES ${CMAKE_MATCH_1})
if(NOT BURST_OUT MATCHES "\"service\\.requests\":([0-9]+)")
  message(FATAL_ERROR "stats shows no service.requests counter:\n${BURST_OUT}")
endif()
set(REQUESTS ${CMAKE_MATCH_1})
if(NOT REQUESTS EQUAL 65 OR NOT BATCHES LESS REQUESTS)
  message(FATAL_ERROR
    "64 buffered requests + stats ran as ${REQUESTS} requests in "
    "${BATCHES} batches; expected 65 requests in fewer batches")
endif()

# --trace keeps spans (only then): one service.request span per request,
# and the answers are the same bytes.
run_sestd(${WORKDIR}/sestd_traced.out ${WORKDIR}/sestd_reqs2x.jsonl
          --jobs 2 --trace ${WORKDIR}/sestd_trace.json)
file(READ ${WORKDIR}/sestd_traced.out GOT)
if(NOT GOT STREQUAL "${TWICE}")
  message(FATAL_ERROR "sestd output differs under --trace")
endif()
file(READ ${WORKDIR}/sestd_trace.json TRACE)
string(REGEX MATCHALL "\"name\":\"service\\.request\",\"cat\":\"phase\""
       SPANS "${TRACE}")
list(LENGTH SPANS NSPANS)
if(NOT NSPANS EQUAL 16)
  message(FATAL_ERROR "expected 16 service.request spans, got ${NSPANS}")
endif()

# The line cap: a 17 MiB line between two valid requests is answered in
# order with an error naming the 16 MiB limit, and serving goes on.
string(REPEAT "x" 17825792 HUGE)
file(WRITE ${WORKDIR}/sestd_huge.jsonl
  "{\"id\":1,\"op\":\"parse\",\"source\":\"${SRC_A}\"}\n${HUGE}\n{\"id\":3,\"op\":\"parse\",\"source\":\"${SRC_A}\"}\n")
set(HUGE "")
run_sestd(${WORKDIR}/sestd_huge.out ${WORKDIR}/sestd_huge.jsonl)
file(REMOVE ${WORKDIR}/sestd_huge.jsonl)
file(STRINGS ${WORKDIR}/sestd_huge.out HUGE_LINES)
list(LENGTH HUGE_LINES NHUGE)
if(NOT NHUGE EQUAL 3)
  message(FATAL_ERROR "expected 3 responses around the long line, got ${NHUGE}")
endif()
list(GET HUGE_LINES 0 FIRST)
list(GET HUGE_LINES 1 SECOND)
list(GET HUGE_LINES 2 THIRD)
if(NOT FIRST MATCHES "\"id\":1,.*\"ok\":true" OR
   NOT SECOND MATCHES "\"ok\":false.*16777216" OR
   NOT THIRD MATCHES "\"id\":3,.*\"ok\":true")
  message(FATAL_ERROR "long line not answered in order:\n${FIRST}\n${SECOND}\n${THIRD}")
endif()
