# Negative cases for bench_json_check: the checker must reject a broken
# trajectory, not just accept good ones. Each case copies a valid document
# (a checked-in bench/reference trajectory, or the small inline fuzz and
# lint documents below), breaks exactly one rule with string(REPLACE), and
# expects a non-zero exit plus a stderr line naming the offending key path.
# Only the key path is matched, never the wording of the message.
# Inputs: -DCHECKER=<bench_json_check> -DREFERENCE_DIR=<bench/reference>
#         -DSCRATCH=<scratch dir>

if(NOT DEFINED CHECKER OR NOT DEFINED REFERENCE_DIR OR NOT DEFINED SCRATCH)
  message(FATAL_ERROR
          "run_json_check_rejects.cmake needs CHECKER, REFERENCE_DIR, SCRATCH")
endif()

file(READ "${REFERENCE_DIR}/BENCH_fault_availability_smoke.json" faults_doc)
file(READ "${REFERENCE_DIR}/BENCH_kernel_sweep_smoke.json" kernels_doc)
file(READ "${REFERENCE_DIR}/BENCH_serving_tail_smoke.json" topology_doc)
set(fuzz_doc [=[{
  "bench": "acs_fuzz", "schema_version": 1, "threads": 1, "seed": 7,
  "smoke": true, "wall_seconds": 0.5,
  "fuzz": {"candidates": 24, "viable": 24, "executions": 204, "rounds": 1,
           "corpus_size": 22, "features_covered": 484,
           "coverage_fingerprint": "0xc3bb8720c28755bf",
           "findings": {"differential": 0}},
  "metrics": []
}
]=])
set(lint_doc [=[{
  "bench": "acs_lint", "schema_version": 1, "threads": 1, "seed": 1,
  "smoke": true, "wall_seconds": 0.5,
  "lint": {"programs": 22, "functions_verified": 147, "diagnostics": 120,
           "witnesses": 6, "replays_confirmed": 6, "replays_refuted": 0,
           "replays_unconfirmed": 0, "findings_by_code": {"ACS003": 120},
           "findings_by_function": {"cf$a": 1}},
  "metrics": []
}
]=])

# check(<name> <body> <rc-var> <stderr-var>): run the checker on <body>.
# The file path is cut from stderr, so only the message itself can match.
function(check name body rc_var err_var)
  set(path "${SCRATCH}/json_check_${name}.json")
  file(WRITE "${path}" "${body}")
  execute_process(COMMAND "${CHECKER}" "${path}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REPLACE "${path}" "" err "${err}")
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

# Each unbroken base document must pass, or the rejections prove nothing.
foreach(doc faults_doc kernels_doc topology_doc fuzz_doc lint_doc)
  check(${doc} "${${doc}}" rc err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "base document ${doc} rejected (exit ${rc}):\n${err}")
  endif()
endforeach()

# reject(<name> <doc-var> <from> <to> <expected stderr substring>...)
function(reject name doc_var from to)
  string(REPLACE "${from}" "${to}" body "${${doc_var}}")
  if(body STREQUAL "${${doc_var}}")
    message(FATAL_ERROR "case '${name}': '${from}' not found in ${doc_var}")
  endif()
  check(${name} "${body}" rc err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "case '${name}': bench_json_check accepted it")
  endif()
  foreach(expected IN LISTS ARGN)
    string(FIND "${err}" "${expected}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "case '${name}': stderr does not name '${expected}':\n${err}")
    endif()
  endforeach()
endfunction()

# --- top level and obs ----------------------------------------------------
reject(missing-top-level-key topology_doc [=["schema_version": 1,]=] ""
       schema_version)
reject(non-finite-leaf faults_doc [=["backoff_cycles": 13650000]=]
       [=["backoff_cycles": inf]=] faults.backoff_cycles)
reject(obs-counts-not-edges-plus-one topology_doc
       [=["counts": [3, 0, 0, 0, 0, 0, 0, 0, 0, 0]]=]
       [=["counts": [3, 0, 0, 0, 0, 0, 0, 0, 0]]=]
       obs.histograms.baseline_load110_f0.topo.breaker.open_pools)
reject(obs-missing-counter-map topology_doc [=["counters": {]=]
       [=["kounters": {]=] obs.counters)

# --- faults ---------------------------------------------------------------
reject(faults-missing-number faults_doc [=["restarts": 57,]=] ""
       faults.restarts)
reject(faults-missing-counter-map faults_doc [=["injected": {]=]
       [=["injected_kinds": {]=] faults.injected)

# --- fuzz -----------------------------------------------------------------
reject(fuzz-missing-number fuzz_doc [=["viable": 24, ]=] "" fuzz.viable)
reject(fuzz-fingerprint-format fuzz_doc [=["0xc3bb8720c28755bf"]=]
       [=["c3bb8720c28755bf"]=] fuzz.coverage_fingerprint)
reject(fuzz-missing-counter-map fuzz_doc [=["findings": {]=]
       [=["finding": {]=] fuzz.findings)

# --- lint -----------------------------------------------------------------
reject(lint-missing-number lint_doc [=["diagnostics": 120,]=] ""
       lint.diagnostics)
reject(lint-replays-not-witnesses lint_doc [=["replays_refuted": 0]=]
       [=["replays_refuted": 1]=] lint witness)
reject(lint-missing-counter-map lint_doc [=["findings_by_code": {]=]
       [=["findings_by_kode": {]=] lint.findings_by_code)

# --- topology -------------------------------------------------------------
reject(topology-missing-number topology_doc [=["hedges": 0,]=] ""
       topology.hedges)
reject(topology-config-missing-number topology_doc [=[
        "retries": 0,]=] "" topology.configs.baseline_load110_f0 retries)
reject(topology-missing-counter-map topology_doc [=["drops": {]=]
       [=["drop": {]=] topology.drops)
reject(topology-terminal-sum topology_doc [=[
    "failed": 2,]=] [=[
    "failed": 3,]=] topology failed)
reject(topology-goodput-sum topology_doc [=[
    "goodput": 454,]=] [=[
    "goodput": 455,]=] topology deadline_missed)
reject(topology-drops-sum topology_doc [=["retry-exhausted": 2]=]
       [=["retry-exhausted": 3]=] topology.drops)
reject(topology-phase-goodput topology_doc
       [=["pre_storm": {"arrivals": 60, "goodput": 58}]=]
       [=["pre_storm": {"arrivals": 60, "goodput": 61}]=]
       topology.configs.baseline_load110_f0 pre_storm)
reject(topology-latency-monotone topology_doc [=["p50": 5247,]=]
       [=["p50": 99999,]=] topology.configs.baseline_load110_f0 latency)
reject(topology-p999-over-max topology_doc
       [=["p999": 31743, "max": 31683]=] [=["p999": 31743, "max": 100]=]
       topology.configs.baseline_load110_f0 p999)

# --- kernels --------------------------------------------------------------
reject(kernels-missing-number kernels_doc [=["runs": 49,]=] ""
       kernels.runs)
reject(kernels-entry-missing-number kernels_doc [=["chain_pushes": 0,]=] ""
       kernels.entries.geo/p0.500/baseline chain_pushes)
reject(kernels-entry-count kernels_doc [=["kernels": 7,]=]
       [=["kernels": 8,]=] kernels.entries)
reject(kernels-instructions-over-cycles kernels_doc [=["cycles": 4130,]=]
       [=["cycles": 600,]=] kernels.entries.geo/p0.500/baseline
       instructions)
reject(kernels-calls-over-instructions kernels_doc [=["calls": 63,]=]
       [=["calls": 700,]=] kernels.entries.geo/p0.500/baseline calls)
reject(kernels-cycles-per-instruction kernels_doc
       [=["cycles_per_instruction": 5.9084406294706726]=]
       [=["cycles_per_instruction": 5.9]=]
       kernels.entries.geo/p0.500/baseline cycles_per_instruction)
reject(kernels-total-cycles kernels_doc [=["total_cycles": 594031]=]
       [=["total_cycles": 594032]=] kernels.total_cycles)
reject(kernels-tag-without-slash kernels_doc [=["geo/p0.500/baseline": {]=]
       [=["geo-p0.500-baseline": {]=] kernels.entries.geo-p0.500-baseline)
