// Key independence: with no fault delivered, a program's run does not
// depend on the machine's keys. Fresh keys change PAC bits (and canary
// values), never control flow — PACStack's correctness property, that a
// correctly signed return address always authenticates. The topology
// engine relies on it: a fault-free attempt reuses its class's calibrated
// clean outcome instead of running a machine (workload/topology.h).
//
// The sweep forks each compiled program under two machine seeds and
// requires identical cycles, instruction counts, CoW pages, exit status
// and output: every scheme x every service class x 64 request jitter
// seeds, plus every committed fuzzer reproducer that exits cleanly under
// the baseline scheme.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/codegen.h"
#include "compiler/scheme.h"
#include "exec/parallel.h"
#include "fuzz/serialize.h"
#include "kernel/machine.h"
#include "workload/nginx_sim.h"
#include "workload/serving.h"

namespace acs::workload {
namespace {

using compiler::Scheme;

constexpr u64 kJitterSeeds = 64;
constexpr u64 kBudget = 20'000'000;

/// What a fault-free run leaves behind that an attempt's outcome reads.
struct CleanRun {
  u64 cycles = 0;
  u64 instructions = 0;
  u64 private_pages = 0;
  bool budget_blown = false;
  kernel::ProcessState state = kernel::ProcessState::kLive;
  u64 exit_code = 0;
  std::vector<u64> output;
};

CleanRun run_clean(const kernel::Machine& master, u64 seed) {
  kernel::MachineOptions options;
  options.seed = seed;
  kernel::Machine machine(master, options);
  const kernel::Stop stop = machine.run(kBudget);
  const auto& process = machine.init_process();
  return {.cycles = process.cycles(),
          .instructions = machine.total_instructions(),
          .private_pages = process.mem.private_pages(),
          .budget_blown = stop.reason == kernel::StopReason::kMaxInstructions,
          .state = process.state,
          .exit_code = process.exit_code,
          .output = process.output};
}

/// Two forks of one compiled program under distinct key seeds.
void expect_key_independent(const compiler::ProgramIr& ir, Scheme scheme,
                            u64 seed) {
  const kernel::Machine master(compiler::compile_ir(ir, {.scheme = scheme}),
                               kernel::MachineOptions{});
  const CleanRun a = run_clean(master, exec::trial_seed(seed, 0));
  const CleanRun b = run_clean(master, exec::trial_seed(seed, 1));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.private_pages, b.private_pages);
  EXPECT_EQ(a.budget_blown, b.budget_blown);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.output, b.output);
}

TEST(KeyIndependence, EveryRequestClassUnderEveryScheme) {
  const auto& classes = default_service_classes();
  for (const Scheme scheme : compiler::all_schemes()) {
    for (const auto& cls : classes) {
      for (u64 j = 0; j < kJitterSeeds; ++j) {
        const u64 jitter = exec::trial_seed(cls.work_units, j);
        SCOPED_TRACE(std::string(compiler::scheme_name(scheme)) + " " +
                     cls.name + " jitter " + std::to_string(j));
        expect_key_independent(make_request_ir(cls.work_units, jitter),
                               scheme, jitter);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(KeyIndependence, CleanCorpusReproducersUnderEveryScheme) {
  unsigned clean = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ACS_CORPUS_DIR)) {
    if (entry.path().extension() != ".acsir") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const auto ir = fuzz::parse_ir(text.str());

    const kernel::Machine baseline(
        compiler::compile_ir(ir, {.scheme = Scheme::kNone}),
        kernel::MachineOptions{});
    const CleanRun reference = run_clean(baseline, 1);
    if (reference.budget_blown ||
        reference.state != kernel::ProcessState::kExited ||
        reference.exit_code != 0) {
      continue;
    }
    ++clean;
    for (const Scheme scheme : compiler::all_schemes()) {
      SCOPED_TRACE(entry.path().filename().string() + " " +
                   compiler::scheme_name(scheme));
      expect_key_independent(ir, scheme, clean);
    }
  }
  EXPECT_GT(clean, 0U);
}

}  // namespace
}  // namespace acs::workload
