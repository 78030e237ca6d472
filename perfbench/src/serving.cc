// Workload `serving`: the bench_serving_topology sweep, one config per op.
//
// Sweep: scheme (baseline, PACStack) x offered load (80%, 90%) x storm
// (off, 3000, 8000 faults per million instructions of kBudgetExhaust on
// tier 0 / pool 0) x mitigation arm (none, retry-budget, breaker-shed) —
// the bench's full sweep at 200 instead of 600 requests — run through
// workload::run_topology_simulation with the bench's topology (2 tiers x 3
// pools x 1 worker, queue 64, storm over arrivals 15%..75%). Each op's
// config seed is derived from the workload seed and the op index, so every
// attempt forks machines with fresh keys. Unit: simulated request. Two
// host threads.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "inject/engine.h"
#include "inject/plan.h"
#include "kernel/machine.h"
#include "layers.h"
#include "obs/recorder.h"
#include "workload/nginx_sim.h"
#include "workload/serving.h"
#include "workload/topology.h"
#include "workloads.h"

namespace perfbench {

using namespace acs;
using compiler::Scheme;
using workload::Mitigation;

namespace {

constexpr unsigned kThreads = 2;
constexpr u64 kRequests = 200;
constexpr u64 kReferenceRequests = 400;  // bench_serving_topology --smoke
constexpr u64 kReferenceSeed = 42;
constexpr double kStorms[] = {0, 3000, 8000};  // faults per million instr
constexpr double kReferenceStorms[] = {0, 8000};
constexpr u64 kClassSalt = 0x5e7'71ce;

struct Point {
  Scheme scheme;
  const char* label;
  unsigned load;
  double storm;
  Mitigation arm;
};

/// The sweep, in bench_serving_topology's loop order.
template <typename Storms>
std::vector<Point> sweep(const std::vector<unsigned>& loads, const Storms& storms) {
  std::vector<Point> points;
  for (const auto& [scheme, label] :
       {std::pair{Scheme::kNone, "baseline"}, std::pair{Scheme::kPacStack, "pacstack"}}) {
    for (const unsigned load : loads) {
      for (const double storm : storms) {
        for (const Mitigation arm : {Mitigation::kNone, Mitigation::kRetryBudget,
                                     Mitigation::kBreakerShed}) {
          points.push_back({scheme, label, load, storm, arm});
        }
      }
    }
  }
  return points;
}

std::string tag_of(const Point& p) {
  return std::string(p.label) + "_load" + std::to_string(p.load) + "_s" +
         std::to_string(static_cast<int>(p.storm)) + "_" +
         workload::mitigation_name(p.arm);
}

workload::TopologyConfig config_of(const Point& p, u64 requests, u64 seed,
                                   unsigned threads) {
  workload::TopologyConfig config;
  config.tiers = 2;
  config.pools_per_tier = 3;
  config.workers_per_pool = 1;
  config.requests = requests;
  config.load_percent = p.load;
  config.queue_capacity = 64;
  config.storm_faults_per_million = p.storm;
  config.storm_begin_permille = 150;
  config.storm_end_permille = 750;
  config.fault_kinds = {inject::FaultKind::kBudgetExhaust};
  config.seed = seed;
  config.threads = threads;
  workload::apply_mitigation(config, p.arm);
  return config;
}

/// Attempt slots per (request, tier), the one formula of
/// run_topology_simulation this benchmark restates: stage 1 precomputes a
/// normal variant of every (request, tier, slot) plus a stormed variant of
/// every slot on the storm tier (workload/topology.h). The engine exposes
/// no counter of precomputed attempts.
u64 slots_per_tier(const workload::TopologyConfig& c) {
  return c.max_restarts + 1 + (c.hedge_after_cycles > 0 ? 1 : 0);
}

/// Accounting identities every config must satisfy.
bool accounting_ok(const workload::TopologyConfig& c,
                   const workload::TopologyResult& r) {
  u64 drops = 0;
  for (const auto& [cause, n] : r.drops) drops += n;
  return r.requests == c.requests &&
         r.completed + r.dropped + r.failed == r.requests &&
         drops == r.dropped + r.failed && r.goodput <= r.completed &&
         r.deadline_missed == r.completed - r.goodput &&
         r.pre_storm.arrivals + r.storm.arrivals + r.post_storm.arrivals ==
             r.requests &&
         r.forks >= r.completed * c.tiers && r.latency.count() == r.completed;
}

std::string fingerprint_of(const workload::TopologyResult& r) {
  return std::to_string(r.completed) + ":" + std::to_string(r.dropped) + ":" +
         std::to_string(r.failed) + ":" + std::to_string(r.goodput) + ":" +
         std::to_string(r.post_storm.goodput) + "/" +
         std::to_string(r.post_storm.arrivals) + ":" +
         std::to_string(r.latency.p99()) + ":" + std::to_string(r.forks);
}

/// Selection weight of a request class: the share of attempts that run it.
double weight_of(const workload::ServiceClass& cls) {
  return static_cast<double>(cls.weight_permille) * 1e-3;
}

/// Per-scheme tallies of the counted phase; stormed attempts per storm
/// level (index into kStorms).
struct Tally {
  double configs = 0;
  double normal_attempts = 0;
  double stormed_attempts[std::size(kStorms)] = {};
};

class Serving final : public Workload {
 public:
  Serving(u64 seed, Reference& ref)
      : seed_(seed), ref_(ref), points_(sweep({80, 90}, kStorms)) {}

  const char* unit() const override { return "request"; }
  unsigned threads() const override { return kThreads; }

  void setup(SpanLog* log) override {
    // The engine compiles its masters inside every config, so the process
    // has nothing to build before the first op: set-up is one small stormed
    // warm-up config.
    Scope span(log, "workload.warmup", 0);
    const auto config =
        config_of(points_[4], 40, exec::trial_seed(seed_ ^ kClassSalt, 1), kThreads);
    (void)workload::run_topology_simulation(points_[4].scheme, config);
  }

  OpResult run_op(u64 index, SpanLog* log, bool count) override {
    const Point& p = points_[index % points_.size()];
    const auto config = config_of(p, kRequests, exec::trial_seed(seed_, index), kThreads);
    workload::TopologyResult r;
    {
      Scope span(log, "workload.run_topology_simulation", index);
      r = workload::run_topology_simulation(p.scheme, config);
    }
    OpResult result;
    result.units = r.requests;
    result.op_class = index % points_.size();
    result.ok = accounting_ok(config, r);
    result.fingerprint = fingerprint_of(r);
    if (index == 0) op0_fingerprint_ = result.fingerprint;
    if (count) {
      const double slots = static_cast<double>(slots_per_tier(config));
      Tally& t = tally_[p.scheme == Scheme::kPacStack ? 1 : 0];
      t.configs += 1;
      t.normal_attempts += static_cast<double>(config.requests * config.tiers) * slots;
      for (std::size_t l = 1; l < std::size(kStorms); ++l) {
        if (p.storm == kStorms[l]) {
          t.stormed_attempts[l] += static_cast<double>(config.requests) * slots;
        }
      }
      forks_ += static_cast<double>(r.forks);
      cow_pages_ += static_cast<double>(r.cow_pages_copied);
    }
    return result;
  }

  bool check(Json& out) override {
    // Reference configs coincide with bench_serving_topology --smoke (seed
    // 42, 400 requests, 90% load); their outputs are pinned. The workload
    // seed picks one unstormed and one stormed config; pin mode runs all.
    const auto refs = sweep({90}, kReferenceStorms);
    std::vector<std::size_t> picks;
    if (ref_.pinning()) {
      for (std::size_t i = 0; i < refs.size(); ++i) picks.push_back(i);
    } else {
      const std::size_t a = seed_ % 6;
      const std::size_t b = (seed_ / 6) % 6;
      picks = {(a / 3) * 6 + a % 3, (b / 3) * 6 + 3 + b % 3};
    }
    bool ok = true;
    for (const std::size_t i : picks) {
      const auto config = config_of(refs[i], kReferenceRequests, kReferenceSeed, kThreads);
      const auto r = workload::run_topology_simulation(refs[i].scheme, config);
      const bool pass = accounting_ok(config, r) &&
                        ref_.expect("serving/" + tag_of(refs[i]), fingerprint_of(r));
      out.boolean("serving.reference." + tag_of(refs[i]), pass);
      ok = ok && pass;
    }
    // Thread-count invariance: op 0 again on one thread.
    const Point& p = points_[0];
    const auto one = workload::run_topology_simulation(
        p.scheme, config_of(p, kRequests, exec::trial_seed(seed_, 0), 1));
    const bool invariant = fingerprint_of(one) == op0_fingerprint_;
    out.boolean("serving.thread_invariant", invariant);
    return ok && invariant;
  }

  void profile(double budget_s, Json& m,
               std::map<std::string, Layer>& layers) override {
    // Unit costs: replay the engine's attempt shapes with this run's own
    // seeds. Every pass compiles each class's request image, forks each
    // class master and runs it normally, and runs one stormed attempt per
    // storm level with the storm's fault plan. Passes repeat for the
    // budget; each quantity keeps its fastest.
    // Per scheme, weighted by the class mix: unit costs and layer counts of
    // one normal attempt.
    double fork_ns[2] = {0, 0}, run_ns[2] = {0, 0};
    double signs[2] = {0, 0}, auths[2] = {0, 0};
    double instr[2] = {0, 0}, syscalls[2] = {0, 0}, switches[2] = {0, 0};
    double cls_instr[2][6] = {};  // by instruction class
    // Per storm level: plan (make_plan + Engine) and stormed run costs.
    double plan_ns[std::size(kStorms)] = {}, stormed_run_ns[std::size(kStorms)] = {};
    double planned = 0, delivered = 0, stormed_heaviest = 0;  // heaviest level
    double probe_ns[2] = {0, 0};  // one fork + run of every class
    PaSample sample;
    Rng rng(exec::trial_seed(seed_ ^ kClassSalt, 2));
    const auto& classes = workload::default_service_classes();
    const std::size_t n_classes = classes.size();
    const u64 instr_budget = config_of(points_[0], kRequests, 0, kThreads).attempt_instr_budget;
    // Per (scheme, class): the request image, its compile options, and its
    // master.
    std::vector<compiler::ProgramIr> irs;
    std::vector<compiler::CompileOptions> compile_options;
    std::vector<std::unique_ptr<kernel::Machine>> masters;
    for (int s = 0; s < 2; ++s) {
      for (std::size_t c = 0; c < n_classes; ++c) {
        irs.push_back(workload::make_request_ir(classes[c].work_units, rng.next()));
        compile_options.push_back({.scheme = s == 0 ? Scheme::kNone : Scheme::kPacStack});
        masters.push_back(std::make_unique<kernel::Machine>(
            compiler::compile_ir(irs.back(), compile_options.back())));
        // Layer counts of one attempt of this class, from a metrics recorder.
        const double w = weight_of(classes[c]);
        obs::Recorder recorder;
        kernel::MachineOptions options;
        options.seed = rng.next();
        options.recorder = &recorder;
        kernel::Machine counted(*masters.back(), options);
        counted.run(instr_budget);
        const obs::Metrics counts = recorder.metrics();
        signs[s] += w * static_cast<double>(counts.counter("pa.sign"));
        auths[s] += w * static_cast<double>(counts.counter("pa.auth.ok") +
                                            counts.counter("pa.auth.fail"));
        syscalls[s] += w * static_cast<double>(counts.counter("kernel.syscall"));
        switches[s] += w * static_cast<double>(counts.counter("kernel.ctx_switch"));
        int k = 0;
        for (const char* name : {"alu", "branch", "mem", "pa", "svc", "other"}) {
          const double v =
              static_cast<double>(counts.counter(std::string("sim.instr.") + name));
          instr[s] += w * v;
          cls_instr[s][k++] += w * v;
        }
        if (s == 1) capture_pa(*masters.back(), rng.next(), sample);
      }
    }
    std::vector<std::vector<double>> compiles(masters.size());
    std::vector<std::vector<double>> forks(masters.size()), runs(masters.size());
    std::vector<std::vector<double>> plans(masters.size() * std::size(kStorms));
    std::vector<std::vector<double>> stormed_runs(plans.size());
    std::vector<PaCosts> pa_passes;
    const std::size_t heaviest = std::size(kStorms) - 1;
    const auto start = Clock::now();
    for (int pass = 0; pass == 0 || seconds_since(start) < budget_s; ++pass) {
      for (std::size_t mi = 0; mi < masters.size(); ++mi) {
        auto t0 = Clock::now();
        (void)compiler::compile_ir(irs[mi], compile_options[mi]);
        compiles[mi].push_back(ns_since(t0));
        kernel::MachineOptions options;
        options.seed = rng.next();
        t0 = Clock::now();
        kernel::Machine fork(*masters[mi], options);
        forks[mi].push_back(ns_since(t0));
        t0 = Clock::now();
        fork.run(instr_budget);
        runs[mi].push_back(ns_since(t0));

        // Stormed attempts, shaped as the engine builds them: a burst plan
        // covering the whole attempt.
        for (std::size_t l = 1; l < std::size(kStorms); ++l) {
          inject::PlanConfig plan;
          plan.seed = rng.next();
          plan.horizon = instr_budget;
          plan.kinds = {inject::FaultKind::kBudgetExhaust};
          plan.burst_start = 0;
          plan.burst_len = instr_budget;
          plan.burst_mean_interval = static_cast<u64>(1e6 / kStorms[l]);
          t0 = Clock::now();
          inject::Engine::Config engine_config;
          engine_config.plan = inject::make_plan(plan);
          const double plan_size = static_cast<double>(engine_config.plan.size());
          inject::Engine engine(std::move(engine_config));
          plans[mi * std::size(kStorms) + l].push_back(ns_since(t0));
          kernel::MachineOptions o;
          o.seed = rng.next();
          o.injector = &engine;
          t0 = Clock::now();
          kernel::Machine stormed_fork(*masters[mi], o);
          stormed_fork.run(instr_budget);
          stormed_runs[mi * std::size(kStorms) + l].push_back(ns_since(t0));
          if (l == heaviest) {
            planned += plan_size;
            delivered += static_cast<double>(engine.summary().total_injected());
            stormed_heaviest += 1;
          }
        }
      }
      pa_passes.push_back(time_pa(sample));
    }
    for (std::size_t mi = 0; mi < masters.size(); ++mi) {
      const int s = mi < n_classes ? 0 : 1;
      const double w = weight_of(classes[mi % n_classes]);
      const double f = fastest(forks[mi]);
      const double r = fastest(runs[mi]);
      fork_ns[s] += w * f;
      run_ns[s] += w * r;
      probe_ns[s] += f + r;
      for (std::size_t l = 1; l < std::size(kStorms); ++l) {
        const std::size_t at = mi * std::size(kStorms) + l;
        plan_ns[l] += w * fastest(plans[at]) / 2;  // two schemes
        stormed_run_ns[l] += w * fastest(stormed_runs[at]) / 2;
      }
    }
    planned /= stormed_heaviest;
    delivered /= stormed_heaviest;
    const PaCosts pa = fastest(pa_passes);
    double pa_ns_attempt[2];
    for (int s = 0; s < 2; ++s) {
      pa_ns_attempt[s] = signs[s] * pa.pac_ns + auths[s] * pa.aut_ns;
    }

    // Totals over the counted phase. Stage 1 runs on kThreads threads, so
    // its predicted wall time is its CPU time divided by the thread count.
    const double threads = kThreads;
    double configs = 0, normal = 0, stormed = 0, inject_total = 0;
    double fork_total = 0, pa_total = 0, dispatch_total = 0;
    double pa_count = 0, instr_total = 0, sys_total = 0, sw_total = 0;
    double cls_total[6] = {};
    double calibrate_total = 0;
    for (int s = 0; s < 2; ++s) {
      const Tally& t = tally_[s];
      configs += t.configs;
      normal += t.normal_attempts;
      double t_stormed = 0, t_stormed_run = 0;
      for (std::size_t l = 1; l < std::size(kStorms); ++l) {
        t_stormed += t.stormed_attempts[l];
        t_stormed_run += t.stormed_attempts[l] / threads * stormed_run_ns[l];
        inject_total += t.stormed_attempts[l] / threads * plan_ns[l];
      }
      stormed += t_stormed;
      // The engine's calibration probes run one fork of every class,
      // sequentially, before stage 1.
      calibrate_total += t.configs * probe_ns[s];
      const double parallel_runs = t.normal_attempts / threads;
      fork_total += (parallel_runs + t_stormed / threads) * fork_ns[s];
      pa_total += parallel_runs * pa_ns_attempt[s];
      dispatch_total += parallel_runs * (run_ns[s] - pa_ns_attempt[s]) + t_stormed_run;
      pa_count += t.normal_attempts * (signs[s] + auths[s]);
      instr_total += t.normal_attempts * instr[s];
      for (int k = 0; k < 6; ++k) cls_total[k] += t.normal_attempts * cls_instr[s][k];
      sys_total += t.normal_attempts * syscalls[s];
      sw_total += t.normal_attempts * switches[s];
    }
    // Every config compiles each class's image once.
    double compile_mean = 0;
    for (const auto& c : compiles) compile_mean += fastest(c);
    compile_mean /= static_cast<double>(compiles.size());

    m.num("compiler.compile_ms", compile_mean * 1e-6)
        .num("crypto.siphash_ns", pa.siphash_ns)
        .num("crypto.qarma_ns", pa.qarma_ns)
        .num("pa.pac_ns", pa.pac_ns)
        .num("pa.aut_ns", pa.aut_ns)
        .num("pa.ops", pa_count)
        .num("pa.time_share", run_ns[1] > 0 ? pa_ns_attempt[1] / run_ns[1] : 0)
        .num("sim.instr", instr_total)
        .num("sim.dispatch_ns_per_instr",
             instr[1] > 0 ? (run_ns[1] - pa_ns_attempt[1]) / instr[1] : 0)
        .num("kernel.fork_us", (fork_ns[0] + fork_ns[1]) / 2 * 1e-3)
        .num("kernel.run_us", (run_ns[0] + run_ns[1]) / 2 * 1e-3)
        .num("kernel.cow_pages_per_run", forks_ > 0 ? cow_pages_ / forks_ : 0)
        .num("kernel.syscalls", sys_total)
        .num("kernel.ctx_switches", sw_total)
        .num("inject.plan_us", plan_ns[std::size(kStorms) - 1] * 1e-3)
        .num("inject.faults_planned", planned)
        .num("inject.faults_delivered", delivered)
        .num("inject.plan_used_ratio", planned > 0 ? delivered / planned : 0)
        .num("workload.attempts_precomputed", normal + stormed)
        .num("workload.attempts_used", forks_)
        .num("workload.attempts_used_ratio",
             normal + stormed > 0 ? forks_ / (normal + stormed) : 0);
    int k = 0;
    for (const char* name : {"alu", "branch", "mem", "pa", "svc", "other"}) {
      m.num(std::string("sim.instr.") + name, cls_total[k++]);
    }

    const double attempts_wall = normal / threads + stormed / threads;
    layers["compile"] = {configs * static_cast<double>(n_classes), compile_mean};
    layers["calibrate"] = {configs, configs > 0 ? calibrate_total / configs : 0};
    layers["fork"] = {attempts_wall, attempts_wall > 0 ? fork_total / attempts_wall : 0};
    layers["pa"] = {pa_count / threads, pa_count > 0 ? pa_total / (pa_count / threads) : 0};
    layers["dispatch"] = {instr_total / threads,
                          instr_total > 0 ? dispatch_total / (instr_total / threads) : 0};
    layers["inject"] = {stormed / threads,
                        stormed > 0 ? inject_total / (stormed / threads) : 0};
  }

 private:
  u64 seed_;
  Reference& ref_;
  std::vector<Point> points_;
  std::string op0_fingerprint_;
  Tally tally_[2];
  double forks_ = 0;
  double cow_pages_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serving(u64 seed, Reference& ref) {
  return std::make_unique<Serving>(seed, ref);
}

}  // namespace perfbench
