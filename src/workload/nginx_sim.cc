#include "workload/nginx_sim.h"

#include <algorithm>

#include "common/rng.h"

namespace acs::workload {

namespace {

/// Adds the request path shared by both program shapes to `builder` and
/// returns ngx$handle_request: parse → handshake → respond, whose
/// handshake drives `mac_blocks` MAC blocks. Jitter is drawn from
/// `jitter_seed` in a fixed order, so a seed always yields the same program.
std::size_t add_request_path(compiler::IrBuilder& builder, u64 mac_blocks,
                             u64 jitter_seed) {
  Rng rng(jitter_seed);
  const auto jitter = [&rng](u64 base) {
    // +/- 5% per-run variation in the request mix.
    return base - base / 20 + rng.next_below(base / 10 + 1);
  };

  // Small helpers (leaf): header token scanning, buffer copies.
  const auto scan = builder.begin_function("ngx$scan");
  builder.compute(jitter(18));
  const auto copy = builder.begin_function("ngx$copy");
  builder.compute(jitter(12));

  // Cipher round (leaf) and MAC block: the handshake's inner loop. The MAC
  // block is itself a non-leaf (it drives rounds through a function
  // pointer-free call), matching OpenSSL's call-heavy record processing.
  const auto cipher_round = builder.begin_function("ngx$cipher_round");
  builder.compute(jitter(22));
  const auto mac_block = builder.begin_function("ngx$mac_block");
  builder.call(cipher_round, 2);
  builder.compute(jitter(18));

  // parse(): header-heavy, many small calls, stack buffer for the line.
  const auto parse = builder.begin_function("ngx$parse", 128);
  builder.store_local(0, 0x47455420);  // "GET "
  builder.call(scan, 6);
  builder.call(copy, 2);
  builder.compute(jitter(60));

  // handshake(): asymmetric-crypto stand-in: deep chain + MAC blocks.
  const auto kdf = builder.begin_function("ngx$kdf");
  builder.call(mac_block, 4);
  const auto key_exchange = builder.begin_function("ngx$key_exchange");
  builder.compute(jitter(420));  // modular-arithmetic stand-in
  builder.call(kdf);
  const auto handshake = builder.begin_function("ngx$handshake");
  builder.call(key_exchange);
  builder.call(mac_block, mac_blocks);

  // respond(): tiny body (the paper's 0-byte responses), plus teardown.
  const auto respond = builder.begin_function("ngx$respond", 64);
  builder.store_local(0, 0x200);
  builder.call(copy, 2);
  builder.compute(jitter(40));

  const auto handle = builder.begin_function("ngx$handle_request");
  builder.call(parse);
  builder.call(handshake);
  builder.call(respond);
  return handle;
}

}  // namespace

compiler::ProgramIr make_worker_ir(u64 requests, u64 jitter_seed) {
  compiler::IrBuilder builder;
  const auto handle = add_request_path(builder, 10, jitter_seed);
  const auto worker = builder.begin_function("ngx$worker");
  builder.call(handle, requests);
  builder.write_int(requests);  // completion marker
  return builder.build(worker);
}

compiler::ProgramIr make_request_ir(u64 work_units, u64 jitter_seed) {
  compiler::IrBuilder builder;
  const auto handle = add_request_path(
      builder, std::max<u64>(1, work_units), jitter_seed);
  const auto request_main = builder.begin_function("ngx$request_main");
  builder.call(handle);
  builder.write_int(1);  // completion marker
  return builder.build(request_main);
}

}  // namespace acs::workload
