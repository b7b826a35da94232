# End-to-end smoke test of the srsr_cli tool: generate -> rank -> audit
# -> attack -> sweep over a temp crawl directory. Any non-zero exit or
# missing output fails the test.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path-to-srsr_cli>")
endif()

set(DIR "${CMAKE_CURRENT_BINARY_DIR}/cli_test_crawl")
file(REMOVE_RECURSE "${DIR}")

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "srsr_cli ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  set(CLI_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

run_cli(generate --out "${DIR}" --sources 150 --spam 8 --seed 3 --terms)
foreach(f pages.txt edges.txt labels.txt terms.txt)
  if(NOT EXISTS "${DIR}/${f}")
    message(FATAL_ERROR "generate did not write ${f}")
  endif()
endforeach()

run_cli(rank --in "${DIR}" --algo srsr --top 3)
if(NOT CLI_OUTPUT MATCHES "Top 3 by srsr")
  message(FATAL_ERROR "rank output malformed:\n${CLI_OUTPUT}")
endif()

run_cli(rank --in "${DIR}" --algo pagerank --top 3)
run_cli(rank --in "${DIR}" --algo sourcerank --top 3)

# --trace must emit a structured JSON run report.
set(TRACE "${DIR}/trace.json")
run_cli(rank --in "${DIR}" --algo srsr --top 3 --trace "${TRACE}")
if(NOT EXISTS "${TRACE}")
  message(FATAL_ERROR "rank --trace did not write ${TRACE}")
endif()
file(READ "${TRACE}" trace_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON schema GET "${trace_json}" schema_version)
  if(NOT schema EQUAL 1)
    message(FATAL_ERROR "unexpected schema_version '${schema}' in ${TRACE}")
  endif()
  string(JSON n_trace LENGTH "${trace_json}" trace)
  if(n_trace LESS 1)
    message(FATAL_ERROR "run report has no iteration records:\n${trace_json}")
  endif()
  string(JSON first_iter GET "${trace_json}" trace 0 iteration)
  if(NOT first_iter EQUAL 1)
    message(FATAL_ERROR "first trace record should be iteration 1, got '${first_iter}'")
  endif()
  string(JSON n_stages LENGTH "${trace_json}" stages)
  if(n_stages LESS 1)
    message(FATAL_ERROR "run report has no stage timings:\n${trace_json}")
  endif()
  string(JSON solver_name GET "${trace_json}" solver name)
  if(NOT solver_name STREQUAL "srsr")
    message(FATAL_ERROR "unexpected solver name '${solver_name}' in ${TRACE}")
  endif()
else()
  # Pre-3.19 CMake: settle for structural regexes.
  if(NOT trace_json MATCHES "\"schema_version\":1")
    message(FATAL_ERROR "run report missing schema_version:\n${trace_json}")
  endif()
  if(NOT trace_json MATCHES "\"trace\":\\[\\{\"iteration\":1,")
    message(FATAL_ERROR "run report missing iteration records:\n${trace_json}")
  endif()
endif()

# --trace-out must emit a Perfetto/Chrome trace with the documented span
# tree: the cli.rank root enclosing the CLI stages (load, model build,
# solve) and, under them, ingest, the model build, spam proximity and
# the solver stages.
set(SPANS "${DIR}/rank_spans.json")
run_cli(rank --in "${DIR}" --algo srsr --top 3 --trace-out "${SPANS}")
if(NOT CLI_OUTPUT MATCHES "wrote [0-9]+ spans to")
  message(FATAL_ERROR "rank --trace-out did not report spans:\n${CLI_OUTPUT}")
endif()
if(NOT EXISTS "${SPANS}")
  message(FATAL_ERROR "rank --trace-out did not write ${SPANS}")
endif()
file(READ "${SPANS}" spans_json)
if(NOT spans_json MATCHES "\"traceEvents\":\\[")
  message(FATAL_ERROR "span trace is not Perfetto JSON:\n${spans_json}")
endif()
foreach(span cli.rank cli.load_crawl cli.build_model cli.solve
        graph.io.read_url_corpus graph.io.pages graph.io.edges
        graph.csr_build core.source_graph_build
        core.spam_proximity core.throttle_plan core.solve
        rank.pagerank.solve rank.power.solve)
  if(NOT spans_json MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "span trace is missing '${span}':\n${spans_json}")
  endif()
endforeach()

run_cli(stats --in "${DIR}")
if(NOT CLI_OUTPUT MATCHES "iterations")
  message(FATAL_ERROR "stats output malformed:\n${CLI_OUTPUT}")
endif()

# --prometheus: text exposition format 0.0.4. Counters carry the _total
# suffix and histograms must end their cumulative buckets at +Inf.
run_cli(stats --in "${DIR}" --prometheus)
if(NOT CLI_OUTPUT MATCHES "# TYPE srsr_")
  message(FATAL_ERROR "stats --prometheus has no TYPE lines:\n${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "_total [0-9]")
  message(FATAL_ERROR "stats --prometheus has no counters:\n${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "_bucket{le=\"\\+Inf\"}")
  message(FATAL_ERROR "stats --prometheus histograms lack +Inf:\n${CLI_OUTPUT}")
endif()

run_cli(audit --in "${DIR}" --topk 5)
if(NOT CLI_OUTPUT MATCHES "Spam-proximity audit")
  message(FATAL_ERROR "audit output malformed:\n${CLI_OUTPUT}")
endif()

run_cli(attack --in "${DIR}" --target-source 42 --pages 50)
if(NOT CLI_OUTPUT MATCHES "PageRank percentile")
  message(FATAL_ERROR "attack output malformed:\n${CLI_OUTPUT}")
endif()

# sweep: one model, several kappa configurations through the lazy view.
run_cli(sweep --in "${DIR}" --configs 4 --mode discard)
if(NOT CLI_OUTPUT MATCHES "Kappa sweep \\(4 configs")
  message(FATAL_ERROR "sweep output malformed:\n${CLI_OUTPUT}")
endif()
if(NOT CLI_OUTPUT MATCHES "1\\.00")
  message(FATAL_ERROR "sweep should reach full throttle strength:\n${CLI_OUTPUT}")
endif()
run_cli(sweep --in "${DIR}" --configs 2 --mode absorb)
execute_process(COMMAND "${CLI}" sweep --in "${DIR}" --mode bogus
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "sweep with an unknown --mode should fail")
endif()

# serve: a scripted line-oriented query session against the crawl.
# Covers the full request surface (top/score/rank/compare/info/stats/
# metrics/tracefile), a mid-session recompute (epoch 2 publishes while
# the session runs), and clean shutdown via `quit`.
set(SESSION "${DIR}/serve_session.txt")
set(SERVE_TRACE "${DIR}/serve_spans.json")
file(WRITE "${SESSION}" "top 3
score www.host0000042.example
rank www.host0000042.example
compare www.host0000042.example
recompute 0.5
info
stats
metrics
tracefile ${SERVE_TRACE}
quit
")
execute_process(COMMAND "${CLI}" serve --in "${DIR}" --metrics
                INPUT_FILE "${SESSION}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "srsr_cli serve session failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "serve ready: 150 sources, epoch 1")
  message(FATAL_ERROR "serve did not come up:\n${out}")
endif()
if(NOT out MATCHES "\n1 [^\n]*\n2 [^\n]*\n3 ")
  message(FATAL_ERROR "serve top 3 should list ranks 1..3:\n${out}")
endif()
if(NOT out MATCHES "www\\.host0000042\\.example rank [0-9]+ of 150")
  message(FATAL_ERROR "serve rank output malformed:\n${out}")
endif()
if(NOT out MATCHES "rank_change")
  message(FATAL_ERROR "serve compare output malformed:\n${out}")
endif()
if(NOT out MATCHES "published epoch 2 \\([0-9]+ iterations, converged")
  message(FATAL_ERROR "serve recompute did not publish epoch 2:\n${out}")
endif()
if(NOT out MATCHES "checksum_ok yes")
  message(FATAL_ERROR "serve info should verify the live checksum:\n${out}")
endif()
if(NOT out MATCHES "slo p50 [^\n]* queries [0-9]+, breaches [0-9]+, healthy")
  message(FATAL_ERROR "serve info is missing the SLO line:\n${out}")
endif()
if(NOT out MATCHES "drift epochs [0-9]+->[0-9]+, l1 [^\n]*anomalous")
  message(FATAL_ERROR "serve info is missing the drift line:\n${out}")
endif()
if(NOT out MATCHES "published 2, failed 0")
  message(FATAL_ERROR "serve stats malformed:\n${out}")
endif()
# `metrics` inlines the Prometheus exposition into the session.
if(NOT out MATCHES "# TYPE srsr_serve_")
  message(FATAL_ERROR "serve metrics exposition missing:\n${out}")
endif()
if(NOT out MATCHES "bye\n$")
  message(FATAL_ERROR "serve did not shut down cleanly:\n${out}")
endif()

# `tracefile` dumped the session's spans: query roots plus the traced
# recompute with its solver-stage children, Perfetto-loadable.
if(NOT EXISTS "${SERVE_TRACE}")
  message(FATAL_ERROR "serve tracefile did not write ${SERVE_TRACE}")
endif()
file(READ "${SERVE_TRACE}" serve_spans)
if(NOT serve_spans MATCHES "\"traceEvents\":\\[")
  message(FATAL_ERROR "serve trace is not Perfetto JSON:\n${serve_spans}")
endif()
foreach(span serve.query.top_k serve.query.score serve.recompute
        serve.snapshot_build core.solve rank.power.solve)
  if(NOT serve_spans MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "serve trace is missing '${span}':\n${serve_spans}")
  endif()
endforeach()

# An unknown host must produce an err line, not kill the session; EOF
# without `quit` must still shut down cleanly.
file(WRITE "${SESSION}" "score no.such.host
")
execute_process(COMMAND "${CLI}" serve --in "${DIR}"
                INPUT_FILE "${SESSION}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve EOF shutdown failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "err unknown host 'no.such.host'")
  message(FATAL_ERROR "serve should report unknown hosts:\n${out}")
endif()
if(NOT out MATCHES "bye\n$")
  message(FATAL_ERROR "serve should say bye on EOF:\n${out}")
endif()

# Error paths must exit non-zero, not crash.
execute_process(COMMAND "${CLI}" rank --in "${DIR}/nonexistent"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "rank on a missing directory should fail")
endif()
execute_process(COMMAND "${CLI}" bogus-command
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown command should fail")
endif()

# An option the command does not read must be rejected by name, not
# ignored: a removed flag, and a misspelled one.
function(expect_unknown_option flag)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "srsr_cli ${ARGN} should fail")
  endif()
  if(NOT err MATCHES "unknown option --${flag}")
    message(FATAL_ERROR "srsr_cli ${ARGN} should name --${flag}:\n${err}")
  endif()
endfunction()
expect_unknown_option(partition rank --in "${DIR}" --partition scc)
expect_unknown_option(alpah rank --in "${DIR}" --alpah 0.5)

file(REMOVE_RECURSE "${DIR}")
message(STATUS "cli_test OK")
