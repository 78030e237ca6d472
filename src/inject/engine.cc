#include "inject/engine.h"

#include <algorithm>
#include <utility>

namespace acs::inject {

unsigned TaskInjector::guess_window() const noexcept {
  return engine_->guess_window();
}

void TaskInjector::record(FaultKind kind, bool guess_success) noexcept {
  engine_->record(kind, guess_success);
}

Engine::Engine(Config config)
    : cpu_cursor_(this), guess_window_(config.guess_window) {
  std::vector<PlannedFault> plan;
  if (config.draw) {
    PlanCursor cursor(std::move(*config.draw));
    if (config.plan.empty() && !cursor.two_stream()) {
      cpu_cursor_.draws_ = cursor.may_yield(/*cpu_level=*/true);
      draws_kernel_ = cursor.may_yield(/*cpu_level=*/false);
      lazy_.emplace(std::move(cursor));
      return;
    }
    // Drained up front: the per-level stable sort below then merges a
    // two-stream plan exactly as make_plan does.
    for (PlannedFault fault; cursor.next(fault);) plan.push_back(fault);
  }
  plan.insert(plan.end(), config.plan.begin(), config.plan.end());
  for (const PlannedFault& fault : plan) {
    (is_cpu_level(fault.kind) ? cpu_cursor_.faults_ : kernel_faults_)
        .push_back(fault);
  }
  const auto by_time = [](const PlannedFault& a, const PlannedFault& b) {
    return a.at_instr < b.at_instr;
  };
  std::stable_sort(cpu_cursor_.faults_.begin(), cpu_cursor_.faults_.end(),
                   by_time);
  std::stable_sort(kernel_faults_.begin(), kernel_faults_.end(), by_time);
}

bool Engine::draw(bool cpu_level, u64 instr) {
  PlannedFault fault;
  while (lazy_->next(fault)) {
    const bool cpu = is_cpu_level(fault.kind);
    (cpu ? cpu_cursor_.faults_ : kernel_faults_).push_back(fault);
    if (cpu == cpu_level) return true;
    if (fault.at_instr >= instr) return false;
  }
  lazy_.reset();
  cpu_cursor_.draws_ = false;
  draws_kernel_ = false;
  return false;
}

TaskInjector* Engine::attach() noexcept {
  if (attached_) return nullptr;
  attached_ = true;
  return &cpu_cursor_;
}

void Engine::record(FaultKind kind, bool guess_success) noexcept {
  ++summary_.injected[static_cast<std::size_t>(kind)];
  if (kind == FaultKind::kChainCorrupt) {
    ++summary_.guess_attempts;
    if (guess_success) ++summary_.guess_successes;
  }
}

}  // namespace acs::inject
