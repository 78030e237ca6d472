// NGINX SSL-TPS-like worker and request programs (Table 3).
//
// The paper measures new-TLS-connections-per-second on NGINX worker
// processes under CPU-bound load. We model one worker as a process running
// a request loop: parse (header-scanning with small helper calls) →
// handshake (MAC-block-heavy compute with deep call chains, standing in
// for the RSA/ECDHE work) → respond. Per-run jitter in the request mix
// provides the standard deviation column. The experiment itself — workers
// as independent processes forked from one master, TPS from simulated
// cycles at the model clock — is workload::run_worker_fleet
// (workload/fleet.h); Table 3 runs it fault-free under kFailFast.
#pragma once

#include "compiler/ir.h"
#include "common/types.h"

namespace acs::workload {

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

}  // namespace acs::workload
