// Workload `calls`: fork a pristine master and run it to completion.
//
// Programs: every Figure 5 program (SPEC-like C and C++ suites) under the
// baseline and every Figure 5 scheme, plus the Table 3 NGINX worker images
// (4 workers, first repeat, 250 requests each, the bench's own jitter
// seeds) under baseline / PACStack-nomask / PACStack with an obs::Recorder
// in metrics mode, as bench_table3_nginx --json runs them. An op runs one
// program kRunsPerOp times. The workload seed draws each round's program
// order and every fork's machine seed (keys). Unit: simulated instruction.
// One host thread.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "kernel/machine.h"
#include "layers.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "workload/nginx_sim.h"
#include "workload/spec_suite.h"
#include "workloads.h"

namespace perfbench {

using namespace acs;
using compiler::Scheme;

namespace {

constexpr u64 kOrderSalt = 0xca11'5eed;
constexpr u64 kNginxRequests = 250;   // bench_table3_nginx full size
constexpr u64 kNginxConfigSeed = 94;  // bench_table3_nginx: 90 + 4 workers
constexpr unsigned kNginxWorkers = 4;
constexpr u64 kRunsPerOp = 8;

struct Item {
  std::string key;  ///< "<program>/<scheme>"
  compiler::ProgramIr ir;
  Scheme scheme = Scheme::kNone;
  bool nginx = false;
  std::unique_ptr<kernel::Machine> master;
  std::string fingerprint;  ///< of the set-up warm-up run
  bool pinned_ok = false;   ///< fingerprint matches the pinned reference
  bool sample_pa = false;   ///< PA operands feed the unit-cost replay
};

std::string fingerprint_of(const kernel::Process& process) {
  return std::to_string(static_cast<int>(process.state)) + ":" +
         std::to_string(process.exit_code) + ":" +
         std::to_string(process.cycles()) + ":" +
         std::to_string(process.instructions());
}

obs::RecorderConfig metrics_recorder() {
  obs::RecorderConfig config;
  config.metrics = true;
  config.sim_hz = sim::kSimulatedHz;
  config.process_label = "nginx-sim";
  return config;
}

class Calls final : public Workload {
 public:
  Calls(u64 seed, Reference& ref) : seed_(seed), ref_(ref) {
    const std::vector<std::pair<Scheme, const char*>> fig5 = {
        {Scheme::kNone, "baseline"},
        {Scheme::kPacStack, "pacstack"},
        {Scheme::kPacStackNoMask, "pacstack-nomask"},
        {Scheme::kShadowStack, "shadow-stack"},
        {Scheme::kPacRet, "pac-ret"},
        {Scheme::kCanary, "canary"}};
    // PA operands are sampled from the first C program and the first
    // NGINX image.
    const auto add = [&](const std::string& name, const compiler::ProgramIr& ir,
                         Scheme scheme, const char* label, bool nginx) {
      Item item;
      item.key = name + "/" + label;
      item.sample_pa = name == workload::spec_suite().front().name ||
                       name == "nginx-w0";
      item.ir = ir;
      item.scheme = scheme;
      item.nginx = nginx;
      items_.push_back(std::move(item));
    };
    for (const auto& bench : workload::spec_suite()) {
      const auto ir = workload::make_spec_ir(bench);
      for (const auto& [scheme, label] : fig5) add(bench.name, ir, scheme, label, false);
    }
    for (const auto& bench : workload::spec_cpp_suite()) {
      const auto ir = workload::make_spec_cpp_ir(bench);
      for (const auto& [scheme, label] : fig5) add(bench.name, ir, scheme, label, false);
    }
    // Table 3 worker images: the jitter seed of worker w is the first draw
    // of Rng(trial_seed(config seed, w)), exactly as the bench derives it.
    for (unsigned w = 0; w < kNginxWorkers; ++w) {
      Rng seeder(exec::trial_seed(kNginxConfigSeed, w));
      const auto ir = workload::make_worker_ir(kNginxRequests, seeder.next());
      const std::string name = "nginx-w" + std::to_string(w);
      add(name, ir, Scheme::kNone, "baseline", true);
      add(name, ir, Scheme::kPacStackNoMask, "pacstack-nomask", true);
      add(name, ir, Scheme::kPacStack, "pacstack", true);
    }
  }

  const char* unit() const override { return "instr"; }
  unsigned threads() const override { return 1; }

  void setup(SpanLog* log) override {
    compile_ns_.clear();
    for (Item& item : items_) {
      const auto t0 = Clock::now();
      sim::Program program;
      {
        Scope span(log, "compiler.compile_ir", 0);
        program = compiler::compile_ir(item.ir, {.scheme = item.scheme});
      }
      compile_ns_.push_back(ns_since(t0));
      {
        Scope span(log, "kernel.master", 0);
        item.master = std::make_unique<kernel::Machine>(program);
      }
      // Warm-up: one run of every program, which also yields the
      // fingerprint every later fork of this master must reproduce.
      std::optional<obs::Recorder> recorder;
      kernel::MachineOptions options;
      options.seed = exec::trial_seed(seed_ ^ kOrderSalt, 0);
      if (item.nginx) {
        recorder.emplace(metrics_recorder());
        options.recorder = &*recorder;
      }
      kernel::Machine fork(*item.master, options);
      fork.run();
      item.fingerprint = fingerprint_of(fork.init_process());
      item.pinned_ok = ref_.expect("calls/" + item.key, item.fingerprint);
    }
  }

  /// One op is one program run kRunsPerOp times back to back, as a SPEC
  /// harness repeats one benchmark: each run is forked from the pristine
  /// master with fresh keys and runs to completion. Each round runs every
  /// program once, in an order shuffled by the workload seed. The program
  /// is the op class.
  OpResult run_op(u64 index, SpanLog* log, bool count) override {
    const std::size_t op_class = order(index);
    const Item& item = items_[op_class];
    OpResult result;
    result.op_class = op_class;
    result.ok = true;
    for (u64 k = 0; k < kRunsPerOp; ++k) {
      std::optional<obs::Recorder> recorder;
      kernel::MachineOptions options;
      options.seed = exec::trial_seed(seed_, index * kRunsPerOp + k);
      if (item.nginx || count) {
        recorder.emplace(metrics_recorder());
        options.recorder = &*recorder;
      }
      std::unique_ptr<kernel::Machine> machine;
      {
        Scope span(log, "kernel.fork", index);
        machine = std::make_unique<kernel::Machine>(*item.master, options);
      }
      {
        Scope span(log, "kernel.run", index);
        machine->run();
      }
      const auto& process = machine->init_process();
      const std::string fingerprint = fingerprint_of(process);
      result.units += process.instructions();
      result.fingerprint += fingerprint + ";";
      result.ok = result.ok && item.pinned_ok && fingerprint == item.fingerprint &&
                  process.state == kernel::ProcessState::kExited &&
                  process.exit_code == 0;
      if (count) {
        counters_.merge(recorder->metrics());
        ++forks_;
        cow_pages_ += process.mem.private_pages();
      }
    }
    return result;
  }

  bool check(Json& out) override {
    u64 pinned = 0;
    for (const Item& item : items_) pinned += item.pinned_ok ? 1 : 0;
    out.num("calls.pinned_programs", static_cast<double>(pinned))
        .num("calls.programs", static_cast<double>(items_.size()));
    // One host thread: the fingerprints are those of the 1-thread run.
    return pinned == items_.size();
  }

  void profile(double budget_s, Json& m,
               std::map<std::string, Layer>& layers) override {
    // Unit costs: every pass forks and runs every program with no recorder
    // and with a metrics recorder (the obs cost) on fresh machine seeds,
    // and replays the sampled PA operands. Passes repeat for the budget;
    // each quantity keeps its fastest pass.
    const std::size_t n_items = items_.size();
    PaSample sample;
    double instr = 0, signs = 0, auths = 0;
    for (std::size_t i = 0; i < n_items; ++i) {
      const Item& item = items_[i];
      obs::Recorder recorder(metrics_recorder());
      kernel::MachineOptions options;
      options.seed = exec::trial_seed(seed_, ~i);
      options.recorder = &recorder;
      kernel::Machine counted(*item.master, options);
      counted.run();
      const obs::Metrics counts = recorder.metrics();
      instr += static_cast<double>(counted.init_process().instructions());
      signs += static_cast<double>(counts.counter("pa.sign"));
      auths += static_cast<double>(counts.counter("pa.auth.ok") +
                                   counts.counter("pa.auth.fail"));
      if (item.sample_pa && (item.scheme == Scheme::kPacStack ||
                             item.scheme == Scheme::kPacStackNoMask ||
                             item.scheme == Scheme::kPacRet)) {
        capture_pa(*item.master, options.seed, sample);
      }
    }
    std::vector<std::vector<double>> forks(n_items), runs(n_items), runs_rec(n_items);
    std::vector<PaCosts> pa_passes;
    const auto start = Clock::now();
    for (u64 pass = 0; pass == 0 || seconds_since(start) < budget_s; ++pass) {
      for (std::size_t i = 0; i < n_items; ++i) {
        kernel::MachineOptions options;
        options.seed = exec::trial_seed(seed_ ^ kOrderSalt, pass * n_items + i + 1);
        auto t0 = Clock::now();
        kernel::Machine plain(*items_[i].master, options);
        forks[i].push_back(ns_since(t0));
        t0 = Clock::now();
        plain.run();
        runs[i].push_back(ns_since(t0));

        obs::Recorder recorder(metrics_recorder());
        options.recorder = &recorder;
        kernel::Machine counted(*items_[i].master, options);
        t0 = Clock::now();
        counted.run();
        runs_rec[i].push_back(ns_since(t0));
      }
      pa_passes.push_back(time_pa(sample));
    }
    double fork_ns = 0, run_ns = 0, run_rec_ns = 0;
    double nginx_ns = 0, nginx_rec_ns = 0;
    for (std::size_t i = 0; i < n_items; ++i) {
      const double run = fastest(runs[i]);
      const double run_rec = fastest(runs_rec[i]);
      fork_ns += fastest(forks[i]);
      run_ns += run;
      run_rec_ns += run_rec;
      if (items_[i].nginx) {
        nginx_ns += run;
        nginx_rec_ns += run_rec;
      }
    }
    const PaCosts pa = fastest(pa_passes);
    const double n = static_cast<double>(items_.size());
    const double pa_ns = signs * pa.pac_ns + auths * pa.aut_ns;
    const double pa_unit = signs + auths > 0 ? pa_ns / (signs + auths) : 0;
    const double dispatch_ns = instr > 0 ? (run_ns - pa_ns) / instr : 0;
    const double obs_ns = instr > 0 ? (run_rec_ns - run_ns) / instr : 0;

    double compile_total = 0;
    for (const double c : compile_ns_) compile_total += c;
    m.num("compiler.compile_ms", compile_total / n * 1e-6)
        .num("crypto.siphash_ns", pa.siphash_ns)
        .num("crypto.qarma_ns", pa.qarma_ns)
        .num("pa.pac_ns", pa.pac_ns)
        .num("pa.aut_ns", pa.aut_ns)
        .num("pa.time_share", run_ns > 0 ? pa_ns / run_ns : 0)
        .num("sim.dispatch_ns_per_instr", dispatch_ns)
        .num("kernel.fork_us", fork_ns / n * 1e-3)
        .num("kernel.run_us", run_ns / n * 1e-3)
        .num("obs.metrics_overhead",
             nginx_ns > 0 ? nginx_rec_ns / nginx_ns : 0);

    // Counts from the traced phase's recorders.
    const auto c = [&](const char* name) {
      return static_cast<double>(counters_.counter(name));
    };
    const double traced_signs = c("pa.sign");
    const double traced_auths = c("pa.auth.ok") + c("pa.auth.fail");
    double traced_instr = 0;
    for (const char* cls : {"alu", "branch", "mem", "pa", "svc", "other"}) {
      const double v = c((std::string("sim.instr.") + cls).c_str());
      m.num(std::string("sim.instr.") + cls, v);
      traced_instr += v;
    }
    m.num("sim.instr", traced_instr)
        .num("pa.ops", traced_signs + traced_auths)
        .num("kernel.syscalls", c("kernel.syscall"))
        .num("kernel.ctx_switches", c("kernel.ctx_switch"))
        .num("kernel.cow_pages_per_run",
             forks_ > 0 ? static_cast<double>(cow_pages_) /
                              static_cast<double>(forks_)
                        : 0);

    layers["fork"] = {static_cast<double>(forks_), fork_ns / n};
    layers["pa"] = {traced_signs + traced_auths, pa_unit};
    layers["dispatch"] = {traced_instr, dispatch_ns};
    layers["obs"] = {traced_instr, obs_ns};
  }

 private:
  /// Program of op `index`: each round visits every program once, in an
  /// order shuffled by the workload seed.
  std::size_t order(u64 index) {
    const u64 round = index / items_.size();
    if (order_.empty() || round != order_round_) {
      order_.resize(items_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      Rng rng(exec::trial_seed(seed_ ^ kOrderSalt, round + 1));
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng.next_below(i)]);
      }
      order_round_ = round;
    }
    return order_[index % items_.size()];
  }

  u64 seed_;
  Reference& ref_;
  std::vector<Item> items_;
  std::vector<std::size_t> order_;
  u64 order_round_ = 0;
  std::vector<double> compile_ns_;
  obs::Metrics counters_;
  u64 forks_ = 0;
  u64 cow_pages_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_calls(u64 seed, Reference& ref) {
  return std::make_unique<Calls>(seed, ref);
}

}  // namespace perfbench
