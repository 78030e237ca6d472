// NGINX SSL-TPS-like server simulation (Table 3).
//
// The paper measures new-TLS-connections-per-second on NGINX worker
// processes under CPU-bound load. We model one worker as a process running
// a request loop: parse (header-scanning with small helper calls) →
// handshake (MAC-block-heavy compute with deep call chains, standing in
// for the RSA/ECDHE work) → respond. TPS is derived from simulated cycles
// at the model clock; multiple workers run as independent processes (the
// paper's workers are independent too — the test is CPU-bound, not
// contention-bound). Per-run jitter in the request mix provides the
// standard deviation column.
#pragma once

#include "compiler/ir.h"
#include "compiler/scheme.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace acs::workload {

struct NginxRunResult {
  double requests_per_second = 0;
  double stddev = 0;
  u64 total_requests = 0;
};

struct NginxConfig {
  unsigned workers = 4;
  u64 requests_per_worker = 400;
  unsigned repeats = 5;  ///< independent runs for the sigma column
  u64 seed = 42;
  /// Host threads simulating the worker pool (0 = all hardware threads).
  /// Workers are independent simulated processes, so they parallelise
  /// trivially; per-worker seeds are derived with exec::trial_seed, making
  /// the reported TPS bitwise identical for every thread count.
  unsigned threads = 1;

  // --- observability (see docs/observability.md) ------------------------
  bool collect_metrics = false;  ///< aggregate obs::Metrics over all trials
  bool collect_profile = false;  ///< aggregate folded cycle profiles
  /// Record an event trace for trial 0 only (one representative worker —
  /// tracing every trial would produce unboundedly large files).
  bool trace_first_trial = false;
  std::size_t trace_ring_capacity = 1 << 15;
};

/// Observability output of one experiment. Metrics and profile are merged
/// over all (repeat, worker) trials in trial order, so they are bitwise
/// identical for every `threads` value; the trace covers trial 0 only.
struct NginxObs {
  obs::Metrics metrics;
  obs::FoldedProfile profile;
  std::string trace_json;  ///< Chrome trace-event JSON (empty if not traced)
};

/// Build one worker's program with a jittered request mix.
[[nodiscard]] compiler::ProgramIr make_worker_ir(u64 requests, u64 jitter_seed);

/// Build a single-request program for the fork-per-request topology
/// engine (src/workload/topology.h): the same parse → handshake → respond
/// shape as make_worker_ir, but serving exactly one request whose
/// handshake drives `work_units` MAC blocks — the request-size knob
/// (workload/serving.h service classes) that gives the engine its
/// heavy-tailed service distribution.
[[nodiscard]] compiler::ProgramIr make_request_ir(u64 work_units,
                                                  u64 jitter_seed);

/// Run the full experiment for one scheme. Throws std::runtime_error if any
/// simulated worker fails to exit cleanly (crash, kill, deadlock) — a
/// crashed worker must never contribute to the TPS estimate. When `out_obs`
/// is non-null, the observability dimensions enabled in `config` are
/// collected into it.
[[nodiscard]] NginxRunResult run_nginx_experiment(compiler::Scheme scheme,
                                                  const NginxConfig& config,
                                                  NginxObs* out_obs = nullptr);

}  // namespace acs::workload
