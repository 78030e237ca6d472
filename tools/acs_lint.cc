// acs-lint — static binary verifier for return-address protection
// invariants.
//
// Compile built-in workloads under a protection scheme and statically prove
// (or refute) the scheme's Listing 1-3 invariants with the abstract
// interpreter in src/verify: no raw or unmasked return-address spills, every
// return dominated by a matching authentication, the Section 7.1 leaf
// heuristic applied consistently, X28 never leaking through uninstrumented
// frames. Diagnostics are instruction-addressed (docs/verifier.md maps each
// code to its paper section).
//
// Beyond flagging, the lint synthesizes *attack witnesses* — concrete
// counterexamples (call chain, block path, attacked stack slot, consuming
// instruction) for every replayable ACS001/ACS002/ACS003 diagnostic — and
// can drive each one through the simulator to confirm the predicted
// violation dynamically (--replay), serialize them as machine-readable
// JSON (--witness DIR), or audit fuzzer reproducers for dynamic violations
// with no static diagnostic (--audit DIR).
//
//   acs-lint --list
//   acs-lint --scheme pacstack                      # all workloads, one scheme
//   acs-lint --scheme pacstack-nomask --expect ACS002
//   acs-lint --workload nginx --matrix              # all schemes, one workload
//   acs-lint --scheme pacstack --expect clean --json lint.json
//   acs-lint --scheme pacstack-nomask --replay      # confirm every witness
//   acs-lint --audit tests/corpus                   # corpus back-mapping
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "fuzz/oracle.h"
#include "fuzz/serialize.h"
#include "verify/replay.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload/callgraph_gen.h"
#include "workload/confirm_suite.h"
#include "workload/nginx_sim.h"
#include "workload/spec_suite.h"
#include "workload/witness_suite.h"

namespace {

using namespace acs;
using verify::Code;

struct Options {
  std::string workload = "all";
  std::string scheme = "all";
  bool list = false;
  bool matrix = false;
  bool verbose = false;
  bool replay = false;       ///< replay every witness; fail on non-confirmed
  std::string witness_dir;   ///< write witness JSONL files here (--witness)
  std::string audit_dir;     ///< audit .acsir reproducers here (--audit)
  /// Expectation: empty optional = report-only; empty vector = "clean".
  std::optional<std::vector<Code>> expect;
  bench::BenchOptions bench;  ///< uniform --json/--threads/--smoke flags
};

void print_usage() {
  std::printf(
      "usage: acs-lint [options]\n"
      "  --list                 list available workloads and schemes\n"
      "  --workload <name|all>  workload(s) to verify (default: all)\n"
      "  --scheme <name|all>    protection scheme(s) (default: all)\n"
      "  --expect <spec>        'clean' or comma-separated codes "
      "(e.g. ACS001,ACS005);\n"
      "                         exit 0 iff every program's findings are "
      "within the\n"
      "                         expectation and the union matches it "
      "exactly\n"
      "  --matrix               print a scheme x workload table of "
      "diagnostic codes\n"
      "  --verbose              print every diagnostic, not just "
      "summaries\n"
      "  --witness <dir>        write synthesized attack witnesses as "
      "JSONL files\n"
      "  --replay               replay every witness in the simulator; "
      "exit 1 unless\n"
      "                         all replays confirm the predicted "
      "violation\n"
      "  --audit <dir>          audit every .acsir reproducer in <dir>: "
      "each dynamic\n"
      "                         violation must map back to a static "
      "diagnostic\n"
      "  --json <path>          write machine-readable results "
      "(docs/bench-output.md)\n"
      "  --threads <n>          accepted for bench-flag uniformity; "
      "recorded in the JSON\n"
      "  --smoke                verify a reduced workload set (CI smoke)\n");
}

struct NamedWorkload {
  std::string name;
  compiler::ProgramIr ir;
};

/// The verification corpus: every generator the evaluation runs, plus a few
/// fixed-seed random call graphs. Lint is static, so spec iteration counts
/// are irrelevant (the code is the same); smoke mode trims the spec list to
/// one benchmark per suite.
std::vector<NamedWorkload> all_workloads(bool smoke) {
  std::vector<NamedWorkload> out;
  const auto add_spec = [&](const workload::SpecBenchmark& bench, bool cpp) {
    out.push_back({bench.name, cpp ? workload::make_spec_cpp_ir(bench)
                                   : workload::make_spec_ir(bench)});
  };
  const auto& spec = workload::spec_suite();
  const auto& cpp = workload::spec_cpp_suite();
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (!smoke || i == 0) add_spec(spec[i], false);
  }
  for (std::size_t i = 0; i < cpp.size(); ++i) {
    if (!smoke || i == 0) add_spec(cpp[i], true);
  }
  out.push_back({"nginx", workload::make_worker_ir(50, 7)});
  for (auto& test : workload::confirm_suite()) {
    out.push_back({test.name, std::move(test.ir)});
  }
  const std::size_t graphs = smoke ? 2 : 6;
  for (u64 seed = 1; seed <= graphs; ++seed) {
    Rng rng(seed);
    out.push_back({"callgraph_" + std::to_string(seed),
                   workload::make_random_ir(rng)});
  }
  for (auto& w : workload::witness_suite()) {
    out.push_back({w.name, std::move(w.ir)});
  }
  return out;
}

std::optional<NamedWorkload> find_workload(const std::string& name) {
  for (auto& candidate : all_workloads(/*smoke=*/false)) {
    if (candidate.name == name) return std::move(candidate);
  }
  return std::nullopt;
}

void print_list() {
  std::printf("schemes:\n");
  for (const auto scheme : compiler::all_schemes()) {
    std::printf("  %s\n", compiler::scheme_name(scheme).c_str());
  }
  std::printf("workloads:\n");
  for (const auto& w : all_workloads(/*smoke=*/false)) {
    std::printf("  %s\n", w.name.c_str());
  }
}

std::optional<Code> code_from_name(std::string name) {
  for (char& c : name) c = static_cast<char>(std::toupper(c));
  for (int i = 1; i <= 8; ++i) {
    const Code code = static_cast<Code>(i);
    if (verify::code_name(code) == name) return code;
  }
  return std::nullopt;
}

/// Parse 'clean' or 'ACS001,ACS005' into a sorted code set.
std::optional<std::vector<Code>> parse_expect(const std::string& spec) {
  std::vector<Code> codes;
  if (spec == "clean") return codes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const auto code = code_from_name(spec.substr(pos, end - pos));
    if (!code) return std::nullopt;
    codes.push_back(*code);
    pos = end + 1;
  }
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

std::string codes_to_string(const std::vector<Code>& codes) {
  if (codes.empty()) return "clean";
  std::string out;
  for (const Code c : codes) {
    if (!out.empty()) out += ",";
    out += verify::code_name(c);
  }
  return out;
}

/// "pac-ret+leaf"/"wit$f" -> filesystem-safe token.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '-') {
      c = '-';
    }
  }
  return out;
}

/// Corpus back-mapping audit: re-run the fuzz oracles over every .acsir
/// reproducer in `dir` and require each dynamically found violation to map
/// back to a static diagnostic (fuzz::maps_to_static). Returns the number
/// of unmapped violations (0 = audit passed).
int run_audit(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".acsir") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "--audit: cannot read '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "--audit: no .acsir reproducers in '%s'\n",
                 dir.c_str());
    return 1;
  }
  int unmapped = 0;
  for (const auto& path : files) {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    compiler::ProgramIr ir;
    try {
      ir = fuzz::parse_ir(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), e.what());
      ++unmapped;
      continue;
    }
    const fuzz::EvalResult result = fuzz::evaluate_program(ir);
    int file_unmapped = 0;
    for (const auto& finding : result.findings) {
      if (!fuzz::maps_to_static(ir, finding)) {
        std::fprintf(stderr,
                     "%s: dynamic violation with no static diagnostic: "
                     "%s under %s: %s\n",
                     path.c_str(), fuzz::oracle_name(finding.oracle),
                     compiler::scheme_name(finding.scheme).c_str(),
                     finding.detail.c_str());
        ++file_unmapped;
      }
    }
    unmapped += file_unmapped;
    std::printf("%-24s %zu finding(s), %d unmapped\n",
                path.filename().c_str(), result.findings.size(),
                file_unmapped);
  }
  std::printf("audited %zu reproducer(s): %d unmapped violation(s)\n",
              files.size(), unmapped);
  return unmapped;
}

int run(const Options& options) {
  std::vector<compiler::Scheme> schemes;
  if (options.scheme == "all") {
    schemes = compiler::all_schemes();
  } else {
    try {
      schemes.push_back(compiler::scheme_from_name(options.scheme));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  std::vector<NamedWorkload> workloads;
  if (options.workload == "all") {
    workloads = all_workloads(options.bench.smoke);
  } else {
    auto w = find_workload(options.workload);
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                   options.workload.c_str());
      return 2;
    }
    workloads.push_back(std::move(*w));
  }

  if (!options.witness_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.witness_dir, ec);
    if (ec) {
      std::fprintf(stderr, "--witness: cannot create '%s': %s\n",
                   options.witness_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  bench::BenchReporter reporter("acs_lint", options.bench, /*base_seed=*/1);
  std::vector<Code> seen;
  // Totals for the "lint" section, in fixed (scheme, workload) order.
  u64 programs = 0;
  u64 functions_verified = 0;
  u64 diagnostics = 0;
  u64 witness_count = 0;
  std::map<std::string, u64> findings_by_code;
  std::map<std::string, u64> findings_by_function;
  verify::ReplaySummary replays;
  bool within_expectation = true;

  for (const compiler::Scheme scheme : schemes) {
    for (const auto& w : workloads) {
      const sim::Program program =
          compiler::compile_ir(w.ir, {.scheme = scheme});
      const verify::Report report = verify::verify_program(program, scheme);
      ++programs;
      functions_verified += report.functions_verified;
      diagnostics += report.diagnostics.size();
      const std::vector<Code> codes = report.codes();
      for (const Code c : codes) {
        if (std::find(seen.begin(), seen.end(), c) == seen.end()) {
          seen.push_back(c);
        }
      }
      for (const auto& d : report.diagnostics) {
        ++findings_by_code[verify::code_name(d.code)];
        ++findings_by_function[d.function];
      }
      if (options.expect) {
        for (const Code c : codes) {
          if (!std::binary_search(options.expect->begin(),
                                  options.expect->end(), c)) {
            within_expectation = false;
          }
        }
      }

      const auto witnesses =
          verify::synthesize_witnesses(program, scheme, report);
      witness_count += witnesses.size();
      if (!options.witness_dir.empty() && !witnesses.empty()) {
        std::string body;
        for (const auto& witness : witnesses) {
          body += verify::to_json(witness) + "\n";
        }
        const std::string path =
            options.witness_dir + "/" +
            sanitize(compiler::scheme_name(scheme)) + "_" +
            sanitize(w.name) + ".jsonl";
        if (!bench::write_file(path, body, "acs-lint --witness")) return 1;
      }
      if (options.replay) {
        for (const auto& witness : witnesses) {
          const verify::ReplayResult result =
              verify::replay_witness(program, witness);
          switch (result.verdict) {
            case verify::Verdict::kConfirmed: ++replays.confirmed; break;
            case verify::Verdict::kRefuted: ++replays.refuted; break;
            case verify::Verdict::kUnconfirmed:
              ++replays.unconfirmed;
              break;
          }
          if (options.verbose ||
              result.verdict != verify::Verdict::kConfirmed) {
            std::printf("replay %-16s %-20s %s in %s: %s (%s)\n",
                        compiler::scheme_name(scheme).c_str(),
                        w.name.c_str(),
                        verify::code_name(witness.code).c_str(),
                        witness.function.c_str(),
                        verify::verdict_name(result.verdict),
                        result.detail.c_str());
          }
        }
      }

      if (options.matrix || options.verbose || schemes.size() > 1) {
        std::printf("%-16s %-28s %s\n",
                    compiler::scheme_name(scheme).c_str(), w.name.c_str(),
                    codes_to_string(codes).c_str());
      }
      if (options.verbose && !report.clean()) {
        std::printf("%s", verify::to_string(report).c_str());
      }
    }
  }

  std::sort(seen.begin(), seen.end());
  std::printf(
      "verified %llu program(s), %llu function(s): %llu finding(s)%s, "
      "%llu witness(es)\n",
      static_cast<unsigned long long>(programs),
      static_cast<unsigned long long>(functions_verified),
      static_cast<unsigned long long>(diagnostics),
      diagnostics == 0 ? ""
                            : (" [" + codes_to_string(seen) + "]").c_str(),
      static_cast<unsigned long long>(witness_count));
  if (options.replay) {
    std::printf("replayed %zu witness(es): %zu confirmed, %zu refuted, "
                "%zu unconfirmed\n",
                replays.total(), replays.confirmed, replays.refuted,
                replays.unconfirmed);
  }

  bool expect_met = true;
  if (options.expect) {
    expect_met = within_expectation && seen == *options.expect;
    std::printf("expected %s: %s\n", codes_to_string(*options.expect).c_str(),
                expect_met ? "met" : "NOT met");
  }
  const bool replays_ok =
      !options.replay || replays.confirmed == replays.total();
  if (options.replay && !replays_ok) {
    std::printf("replay verdicts: NOT all confirmed\n");
  }

  reporter.record("programs_checked", static_cast<double>(programs),
                  "programs");
  reporter.record("functions_verified",
                  static_cast<double>(functions_verified), "functions");
  reporter.record("diagnostics_total",
                  static_cast<double>(diagnostics), "diagnostics");
  for (int i = 1; i <= 8; ++i) {
    const std::string code = verify::code_name(static_cast<Code>(i));
    std::string metric = code;
    for (char& c : metric) c = static_cast<char>(std::tolower(c));
    const auto it = findings_by_code.find(code);
    reporter.record(metric,
                    it == findings_by_code.end()
                        ? 0.0
                        : static_cast<double>(it->second),
                    "diagnostics");
  }
  reporter.record("clean", diagnostics == 0 ? 1.0 : 0.0, "bool");
  reporter.record("witnesses", static_cast<double>(witness_count),
                  "witnesses");
  if (options.replay) {
    reporter.record("replays_confirmed",
                    static_cast<double>(replays.confirmed), "replays");
  }
  if (options.expect) {
    reporter.record("expect_met", expect_met ? 1.0 : 0.0, "bool");
  }
  // Replay counters stay zero unless --replay ran.
  reporter.set_section("lint",
                       bench::JsonObject()
                           .add("programs", programs)
                           .add("functions_verified", functions_verified)
                           .add("diagnostics", diagnostics)
                           .add("witnesses", witness_count)
                           .add("replays_confirmed", replays.confirmed)
                           .add("replays_refuted", replays.refuted)
                           .add("replays_unconfirmed", replays.unconfirmed)
                           .add("findings_by_code", findings_by_code)
                           .add("findings_by_function", findings_by_function));
  if (!reporter.finish()) return 1;
  return expect_met && replays_ok ? 0 : 1;
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
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--scheme") {
      options.scheme = next();
    } else if (arg == "--expect") {
      const auto parsed = parse_expect(next());
      if (!parsed) {
        std::fprintf(stderr,
                     "bad --expect value (want 'clean' or e.g. "
                     "'ACS001,ACS005')\n");
        return 2;
      }
      options.expect = *parsed;
    } else if (arg == "--matrix") {
      options.matrix = true;
    } else if (arg == "--witness") {
      options.witness_dir = next();
    } else if (arg == "--replay") {
      options.replay = true;
    } else if (arg == "--audit") {
      options.audit_dir = next();
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--smoke") {
      options.bench.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options.bench.json_path = arg.substr(7);
    } else if (arg == "--json") {
      options.bench.json_path = next();
    } else if (arg.rfind("--threads=", 0) == 0 || arg == "--threads") {
      const std::string value =
          arg == "--threads" ? next() : arg.substr(10);
      options.bench.threads =
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (options.list) {
    print_list();
    return 0;
  }
  if (!options.audit_dir.empty()) {
    return run_audit(options.audit_dir) == 0 ? 0 : 1;
  }
  return run(options);
}
