// Predecoded instruction stream for sim::Cpu.
//
// A DecodedProgram is built once per Program: each instruction slot holds
// the resolved op handler (a function pointer — the dispatch table replaces
// the per-step `switch (op)`), a copy of the operands, and the retire
// metadata (obs instruction class / control-flow kind), so no step
// re-decodes. The stream is immutable after build and shared
// (`shared_ptr<const DecodedProgram>`) across every Cpu, kernel Machine and
// CoW fork executing the same Program — decode cost is paid once per image,
// not once per instruction executed. See docs/simulator.md.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "obs/events.h"
#include "sim/isa.h"

namespace acs::sim {

class Cpu;

/// One predecoded instruction slot. `handler` performs the full execute
/// step for this op (operand reads, state update, cycle charge, obs retire
/// hook) against the Cpu it is handed.
struct DecodedInstr {
  using Handler = void (*)(Cpu&, const DecodedInstr&);
  Handler handler = nullptr;
  Instruction instr{};
  obs::InstrClass klass = obs::InstrClass::kOther;
  obs::CtlFlow ctl = obs::CtlFlow::kNone;

  bool operator==(const DecodedInstr&) const = default;
};

class DecodedProgram {
 public:
  /// Decode every instruction of `program`. The result is immutable;
  /// callers share it freely across threads.
  [[nodiscard]] static std::shared_ptr<const DecodedProgram> build(
      const Program& program);

  /// Decode a single instruction: the one-slot equivalent of build().
  [[nodiscard]] static DecodedInstr decode(const Instruction& instr) noexcept;

  [[nodiscard]] u64 base() const noexcept { return base_; }
  [[nodiscard]] u64 size_bytes() const noexcept {
    return stream_.size() * kInstrBytes;
  }

  /// Slot for `pc`; the caller must have bounds/alignment-checked `pc`
  /// (Program::contains or the run loop's fetch check).
  [[nodiscard]] const DecodedInstr& at(u64 pc) const noexcept {
    return stream_[(pc - base_) / kInstrBytes];
  }

  [[nodiscard]] const std::vector<DecodedInstr>& stream() const noexcept {
    return stream_;
  }

 private:
  u64 base_ = 0;
  std::vector<DecodedInstr> stream_;
};

}  // namespace acs::sim
