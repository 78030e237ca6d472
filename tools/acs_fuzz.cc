// acs-fuzz — coverage-guided differential fuzzer over the compiler IR.
//
// Drives random/mutated call-graph programs through the full pipeline and
// cross-checks four oracles (docs/fuzzing.md): golden-interpreter
// differential, cross-scheme output differential, acs-lint cleanliness,
// and fault survival under injected ret-slot bitflips. Candidates that
// light up new lowering/runtime features are kept and mutated further; any
// oracle failure is shrunk ddmin-style to a minimal reproducer in the
// stable acs-ir text format (replayable with --replay, committed under
// tests/corpus/ as regression tests).
//
//   acs-fuzz --execs 256 --seed 7                 # bounded campaign
//   acs-fuzz --time-budget 60                     # wall-clock campaign
//   acs-fuzz --replay tests/corpus/case.acsir     # re-run one reproducer
//   acs-fuzz --minimize repro.acsir --out min.acsir
//   acs-fuzz --validate tests/corpus                # structural IR audit
//   acs-fuzz --seed-synth corpus/                 # synthetic seed corpus
//   acs-fuzz --execs 64 --json BENCH_acs_fuzz.json --threads 4
//
// Campaigns are bitwise deterministic for a fixed --seed/--execs pair at
// any --threads value; --time-budget is the one intentionally
// non-deterministic stop condition (checked between rounds only).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "compiler/validate.h"
#include "fuzz/engine.h"
#include "fuzz/minimize.h"
#include "fuzz/serialize.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "workload/confirm_suite.h"

namespace {

using namespace acs;

struct Options {
  u64 execs = 128;
  double time_budget = 0.0;
  u64 seed = 1;
  std::string replay_path;
  std::string minimize_path;
  std::string validate_path;  ///< --validate target (.acsir file or dir)
  std::string seed_synth_dir;  ///< --seed-synth output directory
  std::string out_path;     ///< --minimize output (default: stdout)
  std::string corpus_dir;   ///< campaign findings are written here
  bool seed_corpus = true;  ///< pre-seed with the confirm-suite programs
  bench::BenchOptions bench;
};

void print_usage() {
  std::printf(
      "usage: acs-fuzz [options]\n"
      "  --execs <n>          candidate budget for the campaign "
      "(default 128)\n"
      "  --time-budget <sec>  wall-clock budget, checked between rounds\n"
      "                       (0 = none; campaigns stopped by it are not\n"
      "                       thread-count reproducible — use --execs for "
      "that)\n"
      "  --seed <n>           campaign seed (default 1)\n"
      "  --replay <path>      re-run one acs-ir reproducer through every "
      "oracle\n"
      "  --minimize <path>    shrink a failing reproducer (ddmin) and "
      "print it\n"
      "  --validate <path>    structural IR check (compiler::validate_ir) "
      "of one\n"
      "                       .acsir file or every .acsir in a directory\n"
      "  --seed-synth <dir>   write the synthetic seed-kernel catalogue\n"
      "                       (src/synth families targeting under-covered\n"
      "                       feature domains) into <dir> as .acsir files\n"
      "  --out <path>         write the minimized reproducer here instead\n"
      "  --corpus-dir <dir>   write campaign findings into <dir> as "
      ".acsir files\n"
      "  --no-seed-corpus     start from scratch instead of the confirm "
      "suite\n"
      "  --threads <n>        oracle-evaluation threads (0 = all; "
      "default 1)\n"
      "  --json <path>        write machine-readable results "
      "(docs/bench-output.md)\n"
      "  --smoke              tiny candidate budget (CI smoke mode)\n");
}

[[nodiscard]] bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path, std::ios::in | std::ios::binary);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

void print_findings(const std::vector<fuzz::Finding>& findings) {
  for (const auto& finding : findings) {
    std::printf("FINDING [%s] %s: %s\n", fuzz::oracle_name(finding.oracle),
                compiler::scheme_name(finding.scheme).c_str(),
                finding.detail.c_str());
  }
}

int replay(const Options& options) {
  std::string text;
  if (!read_file(options.replay_path, text)) {
    std::fprintf(stderr, "cannot read '%s'\n", options.replay_path.c_str());
    return 2;
  }
  compiler::ProgramIr ir;
  try {
    ir = fuzz::parse_ir(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.replay_path.c_str(), e.what());
    return 2;
  }
  const fuzz::EvalResult result = fuzz::evaluate_program(ir);
  if (!result.viable) {
    std::printf("discarded (budget blow-up or deadlock) after %llu run(s)\n",
                static_cast<unsigned long long>(result.executions));
    return 1;
  }
  std::printf("replayed %zu function(s): %zu feature(s), %zu finding(s)\n",
              ir.functions.size(), result.features.size(),
              result.findings.size());
  print_findings(result.findings);
  return result.findings.empty() ? 0 : 1;
}

/// Run compiler::validate_ir over one .acsir file; returns the violation
/// count (parse failures count as one violation).
int validate_one(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    std::printf("%-32s cannot read\n", path.c_str());
    return 1;
  }
  compiler::ProgramIr ir;
  try {
    ir = fuzz::parse_ir(text);
  } catch (const std::exception& e) {
    std::printf("%-32s parse error: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> errors = compiler::validate_ir(ir);
  std::printf("%-32s %zu function(s), %zu violation(s)\n", path.c_str(),
              ir.functions.size(), errors.size());
  for (const std::string& error : errors) {
    std::printf("  %s\n", error.c_str());
  }
  return static_cast<int>(errors.size());
}

int validate(const Options& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  if (fs::is_directory(options.validate_path, ec)) {
    for (const auto& entry : fs::directory_iterator(options.validate_path)) {
      if (entry.path().extension() == ".acsir") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(options.validate_path);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "no .acsir files under '%s'\n",
                 options.validate_path.c_str());
    return 2;
  }
  int violations = 0;
  for (const std::string& path : paths) violations += validate_one(path);
  std::printf("validated %zu file(s): %d violation(s)\n", paths.size(),
              violations);
  return violations == 0 ? 0 : 1;
}

/// --seed-synth: emit the feature-targeted synthetic kernel catalogue
/// (synth::fuzz_seed_specs) as .acsir seed files. Every kernel is pushed
/// through the full oracle battery before it is written — a seed that is
/// not viable, trips an oracle, or adds no features over the ones already
/// emitted is a catalogue bug and fails the run.
int seed_synth(const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.seed_synth_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n",
                 options.seed_synth_dir.c_str(), ec.message().c_str());
    return 2;
  }

  fuzz::FeatureMap emitted;
  int rc = 0;
  const std::vector<synth::KernelSpec> specs = synth::fuzz_seed_specs();
  for (const synth::KernelSpec& spec : specs) {
    const compiler::ProgramIr ir =
        synth::generate_kernel(spec.params, spec.seed);
    const fuzz::EvalResult result = fuzz::evaluate_program(ir);
    const std::size_t novel = result.features.novel_against(emitted);
    std::printf("%-16s %zu feature(s), %zu novel, %zu finding(s)%s\n",
                spec.point.c_str(), result.features.size(), novel,
                result.findings.size(),
                result.viable ? "" : " NOT VIABLE");
    if (!result.viable || !result.findings.empty() || novel == 0) {
      print_findings(result.findings);
      rc = 1;
      continue;
    }
    emitted.merge(result.features);
    const std::string path =
        options.seed_synth_dir + "/synth-" + spec.point + ".acsir";
    if (!bench::write_file(path, fuzz::serialize_ir(ir), "acs-fuzz")) {
      rc = 1;
    }
  }
  std::printf("emitted %zu seed(s) covering %zu feature(s)\n", specs.size(),
              emitted.size());
  return rc;
}

int minimize(const Options& options) {
  std::string text;
  if (!read_file(options.minimize_path, text)) {
    std::fprintf(stderr, "cannot read '%s'\n", options.minimize_path.c_str());
    return 2;
  }
  compiler::ProgramIr ir;
  try {
    ir = fuzz::parse_ir(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.minimize_path.c_str(), e.what());
    return 2;
  }
  const fuzz::EvalResult initial = fuzz::evaluate_program(ir);
  if (initial.findings.empty()) {
    std::fprintf(stderr, "no oracle fires on '%s'; nothing to minimize\n",
                 options.minimize_path.c_str());
    return 1;
  }
  const fuzz::Finding target = initial.findings.front();
  std::printf("minimizing against [%s] %s\n", fuzz::oracle_name(target.oracle),
              compiler::scheme_name(target.scheme).c_str());
  fuzz::MinimizeStats stats;
  const auto still_fails = [&](const compiler::ProgramIr& candidate) {
    const fuzz::EvalResult check = fuzz::evaluate_program(candidate);
    for (const auto& finding : check.findings) {
      if (finding.oracle == target.oracle && finding.scheme == target.scheme) {
        return true;
      }
    }
    return false;
  };
  const compiler::ProgramIr reduced =
      fuzz::minimize_ir(ir, still_fails, /*max_tests=*/2000, &stats);
  std::printf("%zu -> %zu op(s) in %zu predicate call(s)\n", stats.ops_before,
              stats.ops_after, stats.predicate_calls);
  const std::string body = fuzz::serialize_ir(reduced);
  if (options.out_path.empty()) {
    std::printf("%s", body.c_str());
    return 0;
  }
  return bench::write_file(options.out_path, body, "acs-fuzz") ? 0 : 1;
}

int campaign(const Options& options) {
  fuzz::CampaignConfig config;
  config.seed = options.seed;
  config.max_candidates = options.bench.smoke ? 24 : options.execs;
  config.time_budget_seconds = options.time_budget;
  config.threads = options.bench.threads;
  if (options.seed_corpus) {
    for (auto& test : workload::confirm_suite()) {
      config.seeds.push_back(std::move(test.ir));
    }
  }

  bench::BenchReporter reporter("acs_fuzz", options.bench, options.seed);
  const fuzz::CampaignResult result = fuzz::run_campaign(config);

  std::printf(
      "campaign: %llu candidate(s) in %llu round(s), %llu viable, "
      "%llu machine run(s)\n",
      static_cast<unsigned long long>(result.candidates),
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.viable),
      static_cast<unsigned long long>(result.executions));
  std::printf("coverage: %zu feature(s), corpus %zu, fingerprint %016llx%s\n",
              result.coverage.size(), result.corpus_size,
              static_cast<unsigned long long>(result.fingerprint()),
              result.hit_time_budget ? " (stopped by --time-budget)" : "");

  std::map<std::string, u64> findings_by_oracle;
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const fuzz::FoundCase& found = result.findings[i];
    ++findings_by_oracle[fuzz::oracle_name(found.finding.oracle)];
    std::printf("FINDING [%s] %s: %s (shrunk %zu -> %zu ops)\n",
                fuzz::oracle_name(found.finding.oracle),
                compiler::scheme_name(found.finding.scheme).c_str(),
                found.finding.detail.c_str(), found.ops_before,
                found.ops_after);
    if (!options.corpus_dir.empty()) {
      const std::string path = options.corpus_dir + "/fuzz-" +
                               fuzz::oracle_name(found.finding.oracle) + "-" +
                               compiler::scheme_name(found.finding.scheme) +
                               ".acsir";
      if (bench::write_file(path, found.reproducer, "acs-fuzz")) {
        std::printf("  reproducer written to %s\n", path.c_str());
      }
    } else {
      std::printf("%s", found.reproducer.c_str());
    }
  }

  // The fingerprint is an order-independent set digest, so the section is
  // bitwise identical for any --threads.
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "0x%016llx",
                static_cast<unsigned long long>(result.fingerprint()));
  reporter.set_section("fuzz",
                       bench::JsonObject()
                           .add("candidates", result.candidates)
                           .add("viable", result.viable)
                           .add("executions", result.executions)
                           .add("rounds", result.rounds)
                           .add("corpus_size", result.corpus_size)
                           .add("features_covered", result.coverage.size())
                           .add("coverage_fingerprint",
                                std::string(fingerprint))
                           .add("findings", findings_by_oracle));
  reporter.record("candidates", static_cast<double>(result.candidates),
                  "programs");
  reporter.record("features_covered",
                  static_cast<double>(result.coverage.size()), "features");
  reporter.record("corpus_size", static_cast<double>(result.corpus_size),
                  "programs");
  reporter.record("findings", static_cast<double>(result.findings.size()),
                  "findings");
  reporter.record("executions", static_cast<double>(result.executions),
                  "runs");
  if (!reporter.finish()) return 1;
  return result.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto flag_value = [&](const char* flag,
                                std::string& out) -> bool {
      const std::size_t len = std::strlen(flag);
      if (arg == flag) {
        out = next();
        return true;
      }
      if (arg.rfind(std::string(flag) + "=", 0) == 0) {
        out = arg.substr(len + 1);
        return true;
      }
      return false;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--smoke") {
      options.bench.smoke = true;
    } else if (arg == "--no-seed-corpus") {
      options.seed_corpus = false;
    } else if (flag_value("--execs", value)) {
      options.execs = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag_value("--time-budget", value)) {
      options.time_budget = std::strtod(value.c_str(), nullptr);
    } else if (flag_value("--seed", value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag_value("--replay", options.replay_path)) {
    } else if (flag_value("--minimize", options.minimize_path)) {
    } else if (flag_value("--validate", options.validate_path)) {
    } else if (flag_value("--seed-synth", options.seed_synth_dir)) {
    } else if (flag_value("--out", options.out_path)) {
    } else if (flag_value("--corpus-dir", options.corpus_dir)) {
    } else if (flag_value("--json", options.bench.json_path)) {
    } else if (flag_value("--threads", value)) {
      options.bench.threads =
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (!options.replay_path.empty()) return replay(options);
  if (!options.minimize_path.empty()) return minimize(options);
  if (!options.validate_path.empty()) return validate(options);
  if (!options.seed_synth_dir.empty()) return seed_synth(options);
  return campaign(options);
}
