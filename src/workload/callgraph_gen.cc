#include "workload/callgraph_gen.h"

namespace acs::workload {

compiler::ProgramIr make_random_ir(Rng& rng, const CallGraphParams& params) {
  compiler::IrBuilder builder;
  u64 next_marker = 1000;

  for (std::size_t i = 0; i < params.num_functions; ++i) {
    const bool buffered = rng.next_bool(params.buffer_probability);
    builder.begin_function("rg$f" + std::to_string(i),
                           buffered ? 32 + 16 * rng.next_below(4) : 0);
    builder.compute(1 + rng.next_below(params.max_compute));
    if (buffered) {
      const u64 value = rng.next();  // drawn before the slot offset
      builder.store_local(8 * rng.next_below(4), value);
    }

    if (i > 0) {
      // 1-3 call sites into strictly lower-indexed functions (acyclic).
      const u64 sites = 1 + rng.next_below(3);
      for (u64 s = 0; s < sites; ++s) {
        if (!rng.next_bool(params.call_probability)) continue;
        const std::size_t callee = rng.next_below(i);
        if (rng.next_bool(params.indirect_probability)) {
          builder.call_indirect(callee);
        } else {
          builder.call(callee, 1 + rng.next_below(params.max_repeat));
        }
      }
    }
    builder.write_int(next_marker++);
    if (i > 0 && rng.next_bool(params.tail_call_probability)) {
      builder.tail_call(rng.next_below(i));
    }
  }
  return builder.build(params.num_functions - 1);
}

}  // namespace acs::workload
