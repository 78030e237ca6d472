#include "inject/plan.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace acs::inject {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kRetSlotBitflip: return "ret-slot-bitflip";
    case FaultKind::kChainCorrupt: return "chain-corrupt";
    case FaultKind::kInstrSkip: return "instr-skip";
    case FaultKind::kKeyPerturb: return "key-perturb";
    case FaultKind::kSigFrameTrash: return "sig-frame-trash";
    case FaultKind::kBudgetExhaust: return "budget-exhaust";
    case FaultKind::kStoreWord: return "store-word";
  }
  return "unknown";
}

namespace {

// The random draw set deliberately excludes kStoreWord (which needs a
// concrete target) and must stay exactly these six kinds in this order:
// seeded campaigns are pinned bit-for-bit across the test suite.
constexpr FaultKind kAllKinds[] = {
    FaultKind::kRetSlotBitflip, FaultKind::kChainCorrupt,
    FaultKind::kInstrSkip,      FaultKind::kKeyPerturb,
    FaultKind::kSigFrameTrash,  FaultKind::kBudgetExhaust,
};
static_assert(std::size(kAllKinds) == kNumPlannableKinds);

}  // namespace

PlanCursor::PlanCursor(PlanConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      baseline_(config_.horizon != 0 && config_.mean_interval != 0),
      burst_(config_.horizon != 0 && config_.burst_len != 0 &&
             config_.burst_mean_interval != 0 &&
             config_.burst_start < config_.horizon) {
  if (baseline_) {
    end_ = config_.horizon;
    mean_ = config_.mean_interval;
  } else {
    next_stream();
  }
}

void PlanCursor::next_stream() noexcept {
  if (!burst_ || in_burst_) {
    done_ = true;
    return;
  }
  // Correlated burst: a second renewal process inside the window, drawn
  // from the same stream *after* the baseline so a disabled burst leaves
  // the baseline plan bit-identical to older releases. Clamp without
  // overflow: horizon - burst_start cannot underflow here (burst_start <
  // horizon), while burst_start + burst_len could wrap.
  in_burst_ = true;
  t_ = config_.burst_start;
  end_ = config_.horizon - config_.burst_start > config_.burst_len
             ? config_.burst_start + config_.burst_len
             : config_.horizon;
  mean_ = config_.burst_mean_interval;
}

bool PlanCursor::next(PlannedFault& out) {
  // One renewal process per stream: inter-arrival uniform in
  // [1, 2*mean_interval], starting at the stream's begin, strictly before
  // its end. The draw that overshoots the end still consumes the RNG.
  while (!done_) {
    t_ += 1 + rng_.next_below(2 * mean_);
    if (t_ >= end_) {
      next_stream();
      continue;
    }
    out = PlannedFault{};
    out.at_instr = t_;
    out.kind = config_.kinds.empty()
                   ? kAllKinds[rng_.next_below(kNumPlannableKinds)]
                   : config_.kinds[rng_.next_below(config_.kinds.size())];
    out.min_depth =
        config_.max_depth == 0 ? 0 : rng_.next_below(config_.max_depth);
    out.payload = rng_.next();
    return true;
  }
  return false;
}

bool PlanCursor::may_yield(bool cpu_level) const noexcept {
  if (config_.kinds.empty()) return true;  // all six kinds: both levels
  return std::any_of(config_.kinds.begin(), config_.kinds.end(),
                     [cpu_level](FaultKind kind) {
                       return is_cpu_level(kind) == cpu_level;
                     });
}

std::vector<PlannedFault> make_plan(const PlanConfig& config) {
  std::vector<PlannedFault> plan;
  PlanCursor cursor(config);
  for (PlannedFault fault; cursor.next(fault);) plan.push_back(fault);
  if (cursor.two_stream()) {
    // Merge the burst into the baseline. Each stream is strictly
    // increasing, so a stable sort equals a stable merge of the two runs:
    // on equal times the baseline fault stays first.
    std::stable_sort(plan.begin(), plan.end(),
                     [](const PlannedFault& a, const PlannedFault& b) {
                       return a.at_instr < b.at_instr;
                     });
  }
  return plan;
}

}  // namespace acs::inject
