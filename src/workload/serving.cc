#include "workload/serving.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "compiler/codegen.h"
#include "exec/parallel.h"
#include "inject/engine.h"
#include "kernel/machine.h"
#include "obs/recorder.h"
#include "sim/cycle_model.h"
#include "sim/fault.h"
#include "workload/nginx_sim.h"

namespace acs::workload {

const std::vector<ServiceClass>& default_service_classes() {
  // Weights sum to 1000. The 1.1% huge tail is what pushes p999 an order
  // of magnitude past p50 even before queueing delay.
  static const std::vector<ServiceClass> classes = {
      {"small", 4, 799},
      {"medium", 16, 150},
      {"large", 64, 40},
      {"huge", 256, 11},
  };
  return classes;
}

namespace {

/// Decorrelates the per-request streams from the arrival-process stream.
constexpr u64 kRequestSalt = 0x7365'7276'6526'7271ULL;
constexpr u64 kArrivalSalt = 0x6172'7269'7661'6c73ULL;

struct AttemptOutcome {
  u64 cycles = 0;
  bool crashed = false;
  u64 cow_pages = 0;
};

struct RequestOutcome {
  unsigned cls = 0;
  bool succeeded = false;
  std::vector<AttemptOutcome> attempts;
  // Per-request observability shards, merged in request order.
  obs::Metrics metrics;
  obs::FoldedProfile profile;
};

/// Same saturating exponential backoff as the fleet supervisor.
u64 backoff_for(const ServingConfig& config, u64 restart_number) {
  return saturating_backoff(config.backoff_initial_cycles,
                            config.backoff_multiplier, restart_number,
                            config.backoff_cap_cycles);
}

unsigned pick_class(const std::vector<ServiceClass>& classes, Rng& rng) {
  u64 total = 0;
  for (const auto& cls : classes) total += cls.weight_permille;
  u64 roll = rng.next_below(std::max<u64>(1, total));
  for (unsigned i = 0; i < classes.size(); ++i) {
    if (roll < classes[i].weight_permille) return i;
    roll -= classes[i].weight_permille;
  }
  return 0;
}

}  // namespace

ServingResult run_serving_simulation(compiler::Scheme scheme,
                                     const ServingConfig& config) {
  if (config.workers == 0 || config.requests == 0 ||
      config.load_percent == 0) {
    throw std::runtime_error{
        "run_serving_simulation: workers, requests, and load_percent must "
        "all be non-zero"};
  }
  // Degenerate knobs fail loudly instead of producing silently wrong
  // sweeps: a zero-capacity queue rejects every arrival (the bench would
  // publish all-zero percentiles), and a zero multiplier used to be
  // silently clamped to 1, turning "exponential backoff" into constant.
  if (config.queue_capacity == 0) {
    throw std::runtime_error{
        "run_serving_simulation: queue_capacity must be non-zero (a "
        "zero-capacity queue rejects every arrival)"};
  }
  if (config.backoff_multiplier == 0) {
    throw std::runtime_error{
        "run_serving_simulation: backoff_multiplier must be >= 1"};
  }
  const auto& classes = default_service_classes();
  const unsigned max_attempts = config.max_restarts + 1;

  // One pristine master image per service class; every attempt below
  // CoW-forks one of them. The jitter seed is fixed per (campaign, class)
  // so all requests of a class run the same binary.
  u64 jitter_state = config.seed ^ kRequestSalt;
  std::deque<kernel::Machine> masters;  // deque: Machine never relocates
  for (const auto& cls : classes) {
    const auto ir = make_request_ir(cls.work_units, splitmix64(jitter_state));
    masters.emplace_back(compiler::compile_ir(ir, {.scheme = scheme}),
                         kernel::MachineOptions{});
  }

  // Calibration: one clean fork per class gives the class's service
  // cycles; the weighted mean sets the arrival rate for the requested
  // offered load. Integer-only and sequential, hence thread-invariant.
  u64 mean_service = 0;
  u64 weight_total = 0;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    kernel::MachineOptions options;
    options.seed = exec::trial_seed(config.seed ^ kRequestSalt, i);
    kernel::Machine probe(masters[i], options);
    (void)probe.run(config.attempt_instr_budget);
    const auto& process = probe.init_process();
    if (process.state != kernel::ProcessState::kExited ||
        process.exit_code != 0) {
      throw std::runtime_error{
          "run_serving_simulation: calibration run crashed for class " +
          std::string(classes[i].name)};
    }
    mean_service += process.cycles() * classes[i].weight_permille;
    weight_total += classes[i].weight_permille;
  }
  mean_service /= std::max<u64>(1, weight_total);
  const u64 mean_interarrival = std::max<u64>(
      1, mean_service * 100 /
             (static_cast<u64>(config.workers) * config.load_percent));

  // ---- Stage 1 (parallel): per-request attempt outcomes ----------------
  // All randomness derives from the request index; outcomes land at the
  // request index (the exec::parallel_map_trials contract).
  const bool want_metrics = config.collect_metrics;
  const bool want_profile = config.collect_profile;
  const auto outcomes = exec::parallel_map_trials<RequestOutcome>(
      config.requests, config.seed ^ kRequestSalt,
      [&](u64 request, u64 request_seed) {
        Rng seeder(request_seed);
        const u64 slot_salt = seeder.next();
        RequestOutcome outcome;
        outcome.cls = pick_class(classes, seeder);

        std::unique_ptr<obs::Recorder> recorder;
        obs::TaskChannel* channel = nullptr;
        if (want_metrics || want_profile) {
          obs::RecorderConfig rc;
          rc.metrics = want_metrics;
          rc.trace = false;
          rc.profile = want_profile;
          rc.sim_hz = sim::kSimulatedHz;
          rc.process_label = "serving";
          recorder = std::make_unique<obs::Recorder>(rc);
          channel = recorder->attach(0, request, "request");
        }

        for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
          inject::Engine::Config engine_config;
          if (config.faults_per_million > 0) {
            inject::PlanConfig plan_config;
            plan_config.seed = exec::trial_seed(slot_salt ^ 0xfa, attempt);
            plan_config.horizon = config.attempt_instr_budget;
            plan_config.mean_interval =
                static_cast<u64>(1e6 / config.faults_per_million);
            plan_config.kinds = config.fault_kinds;
            engine_config.draw = std::move(plan_config);
          }
          inject::Engine engine(std::move(engine_config));

          kernel::MachineOptions options;
          // Serving always rekeys: every attempt is a fresh per-request
          // fork with its own keys (exec semantics).
          options.seed = exec::trial_seed(slot_salt, attempt);
          options.recorder = recorder.get();
          options.injector = &engine;
          kernel::Machine machine(masters[outcome.cls], options);
          const kernel::Stop stop = machine.run(config.attempt_instr_budget);
          const auto& process = machine.init_process();

          AttemptOutcome result;
          result.cycles = process.cycles();
          result.cow_pages = process.mem.private_pages();
          result.crashed =
              stop.reason == kernel::StopReason::kMaxInstructions ||
              process.state != kernel::ProcessState::kExited ||
              process.exit_code != 0;
          if (channel != nullptr) channel->cow_pages(result.cow_pages);
          outcome.attempts.push_back(result);
          if (!result.crashed) {
            outcome.succeeded = true;
            break;
          }
        }

        if (recorder != nullptr) {
          if (want_metrics) outcome.metrics = recorder->metrics();
          if (want_profile) outcome.profile = recorder->profile();
        }
        return outcome;
      },
      config.threads);

  // ---- Stage 2 (sequential): the queue simulation ----------------------
  ServingResult result;
  result.requests = config.requests;
  result.mean_service_cycles = mean_service;
  result.mean_interarrival_cycles = mean_interarrival;

  // The span/gauge timeline: one supervisor channel carries every request
  // lifecycle (async-id'd by request) plus the gauge counter track.
  obs::RecorderConfig timeline_config;
  timeline_config.metrics = want_metrics;
  timeline_config.trace = config.trace;
  timeline_config.ring_capacity = config.trace_ring_capacity;
  timeline_config.sim_hz = sim::kSimulatedHz;
  timeline_config.process_label = "serving";
  obs::Recorder timeline(timeline_config);
  obs::TaskChannel* supervisor = timeline.attach(0, 0, "supervisor");

  // Open-loop arrivals: integer interarrival gaps uniform in
  // [1, 2*mean-1] (mean-preserving jitter), drawn sequentially.
  Rng arrivals_rng(config.seed ^ kArrivalSalt);
  std::vector<u64> arrival(config.requests, 0);
  u64 clock = 0;
  for (u64 r = 0; r < config.requests; ++r) {
    clock += mean_interarrival == 1
                 ? 1
                 : arrivals_rng.next_in(1, 2 * mean_interarrival - 1);
    arrival[r] = clock;
  }

  struct Interval {
    u64 arrival = 0, start = 0, end = 0;
    bool admitted = false;
  };
  std::vector<Interval> intervals(config.requests);
  std::vector<u64> busy_until(config.workers, 0);
  std::deque<u64> pending_starts;  // admitted-not-yet-started, FIFO

  for (u64 r = 0; r < config.requests; ++r) {
    const u64 t = arrival[r];
    while (!pending_starts.empty() && pending_starts.front() <= t) {
      pending_starts.pop_front();
    }
    Interval& iv = intervals[r];
    iv.arrival = t;
    if (pending_starts.size() >= config.queue_capacity) {
      ++result.rejected;
      continue;
    }
    iv.admitted = true;
    ++result.admitted;

    // Total slot occupancy: every attempt's cycles plus the supervisor
    // backoff between attempts (rekey-restart).
    const RequestOutcome& outcome = outcomes[r];
    u64 busy = 0;
    for (std::size_t a = 0; a < outcome.attempts.size(); ++a) {
      busy += outcome.attempts[a].cycles;
      if (outcome.attempts[a].crashed) {
        ++result.crashed_attempts;
        if (a + 1 < outcome.attempts.size()) {
          const u64 backoff = backoff_for(config, a + 1);
          busy += backoff;
          result.backoff_cycles += backoff;
          ++result.restarts;
        }
      }
      ++result.forks;
      result.cow_pages_copied += outcome.attempts[a].cow_pages;
    }

    // FIFO dispatch to the earliest-free worker (lowest index on ties).
    auto slot = std::min_element(busy_until.begin(), busy_until.end());
    iv.start = std::max(t, *slot);
    iv.end = iv.start + busy;
    *slot = iv.end;
    pending_starts.push_back(iv.start);

    result.queue_wait.observe(iv.start - iv.arrival);
    result.service.observe(busy);
    if (outcome.succeeded) {
      ++result.completed;
      result.latency.observe(iv.end - iv.arrival);
    } else {
      ++result.failed;
    }
    result.makespan_cycles = std::max(result.makespan_cycles, iv.end);
  }
  result.makespan_cycles = std::max(result.makespan_cycles, clock);

  // Emit the request-lifecycle spans in request order — deterministic,
  // and Perfetto orders each async track by timestamp regardless.
  for (u64 r = 0; r < config.requests; ++r) {
    const Interval& iv = intervals[r];
    supervisor->span_begin(obs::SpanName::kRequest, r, iv.arrival);
    if (!iv.admitted) {
      supervisor->span_instant(obs::SpanName::kRejected, r, iv.arrival);
      supervisor->span_end(obs::SpanName::kRequest, r, iv.arrival);
      continue;
    }
    supervisor->span_instant(obs::SpanName::kAdmitted, r, iv.arrival);
    supervisor->span_begin(obs::SpanName::kQueued, r, iv.arrival);
    supervisor->span_end(obs::SpanName::kQueued, r, iv.start);
    const RequestOutcome& outcome = outcomes[r];
    u64 t = iv.start;
    for (std::size_t a = 0; a < outcome.attempts.size(); ++a) {
      supervisor->span_instant(obs::SpanName::kForked, r, t);
      supervisor->span_begin(obs::SpanName::kExecuting, r, t);
      t += outcome.attempts[a].cycles;
      supervisor->span_end(obs::SpanName::kExecuting, r, t);
      if (!outcome.attempts[a].crashed) {
        supervisor->span_instant(obs::SpanName::kCompleted, r, t);
      } else {
        supervisor->span_instant(obs::SpanName::kCrashed, r, t);
        if (a + 1 < outcome.attempts.size()) {
          supervisor->span_begin(obs::SpanName::kBackoff, r, t);
          t += backoff_for(config, a + 1);
          supervisor->span_end(obs::SpanName::kBackoff, r, t);
          supervisor->span_instant(obs::SpanName::kRestarted, r, t);
        }
      }
    }
    supervisor->span_end(obs::SpanName::kRequest, r, iv.end);
  }

  // Gauge time series: queue depth (admitted, not started) and in-flight
  // (started, not finished), swept over the interval deltas and sampled
  // on the fixed cadence. Event order at equal timestamps: ends, then
  // arrivals, then starts — a request starting the cycle another ends
  // reuses the slot, and a zero-wait request's own arrival must precede
  // its start or the unsigned depth would wrap. FIFO dispatch keeps the
  // momentary depth of a pass-through arrival within queue_capacity: a
  // request can only start at its arrival cycle when nothing is pending.
  struct Delta {
    u64 ts;
    int phase;  ///< 0 = end, 1 = arrival, 2 = start
    u64 request;
  };
  std::vector<Delta> deltas;
  deltas.reserve(config.requests * 3);
  for (u64 r = 0; r < config.requests; ++r) {
    const Interval& iv = intervals[r];
    if (!iv.admitted) continue;
    deltas.push_back({iv.arrival, 1, r});
    deltas.push_back({iv.start, 2, r});
    deltas.push_back({iv.end, 0, r});
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    return a.ts != b.ts ? a.ts < b.ts
                        : (a.phase != b.phase ? a.phase < b.phase
                                              : a.request < b.request);
  });
  obs::Metrics gauge_metrics;
  const u64 cadence = std::max<u64>(1, config.gauge_cadence_cycles);
  u64 queue_depth = 0, inflight = 0;
  std::size_t next_delta = 0;
  for (u64 t = 0; t <= result.makespan_cycles; t += cadence) {
    while (next_delta < deltas.size() && deltas[next_delta].ts <= t) {
      const Delta& d = deltas[next_delta++];
      if (d.phase == 1) {
        ++queue_depth;
      } else if (d.phase == 2) {
        --queue_depth;
        ++inflight;
      } else {
        --inflight;
      }
      result.queue_depth_max = std::max(result.queue_depth_max, queue_depth);
      result.inflight_max = std::max(result.inflight_max, inflight);
    }
    supervisor->gauge(obs::GaugeId::kQueueDepth, queue_depth, t);
    supervisor->gauge(obs::GaugeId::kInFlight, inflight, t);
    gauge_metrics.observe("serving.queue.depth", obs::depth_edges(),
                          queue_depth);
    gauge_metrics.observe("serving.inflight", obs::depth_edges(), inflight);
    ++result.gauge_samples;
  }
  // Deltas past the last sample still count toward the exact maxima.
  while (next_delta < deltas.size()) {
    const Delta& d = deltas[next_delta++];
    if (d.phase == 1) {
      ++queue_depth;
    } else if (d.phase == 2) {
      --queue_depth;
      ++inflight;
    } else {
      --inflight;
    }
    result.queue_depth_max = std::max(result.queue_depth_max, queue_depth);
    result.inflight_max = std::max(result.inflight_max, inflight);
  }

  result.throughput_rps =
      result.makespan_cycles == 0
          ? 0.0
          : static_cast<double>(result.completed) /
                (static_cast<double>(result.makespan_cycles) /
                 static_cast<double>(sim::kSimulatedHz));

  // Fixed merge order: per-request shards in request order, then the
  // timeline shard, then the gauge histograms.
  if (want_metrics || want_profile) {
    // Rejected requests never entered the modeled timeline — their
    // precomputed machine shards are discarded along with the work.
    for (u64 r = 0; r < config.requests; ++r) {
      if (!intervals[r].admitted) continue;
      if (want_metrics) result.metrics.merge(outcomes[r].metrics);
      if (want_profile) result.profile.merge(outcomes[r].profile);
    }
  }
  if (want_metrics) {
    result.metrics.merge(timeline.metrics());
    result.metrics.merge(gauge_metrics);
  }
  if (config.trace) {
    result.trace_json = timeline.trace().to_chrome_json();
  }
  return result;
}

}  // namespace acs::workload
