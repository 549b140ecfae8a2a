// lrdq_doctor — one triage tool over the observability artifacts.
//
//   lrdq_doctor bundle DIR          triage a diagnostics bundle
//   lrdq_doctor access-log FILE     triage a JSONL access log
//   lrdq_doctor socket PATH         ask a live lrdq_serve for a fresh bundle
//                                   (the "dump" control op), then triage it;
//                                   --timeout-ms bounds the wait (exit 5)
//   lrdq_doctor query ID [sources]  join every artifact on one correlation id
//   lrdq_doctor profile TRACE       wall-time profile of a Chrome trace
//   lrdq_doctor selftime PROFILE    per-frame self/total samples of a CPU profile
//   lrdq_doctor diff-manifest A B   what changed between two sweep runs
//   lrdq_doctor diff-metrics A B    metric-by-metric delta of two snapshots
//
// A triage leads with the incidents (crash signal, failpoint fires,
// deadline expiries, sheds) and the flight-recorder timeline that led up
// to each, then the slow-query table, queue-pressure summary, and cache
// hit rate by tier. Every subcommand takes [--top N] [--json] [--out
// FILE]: --json renders the same analysis as one object validated by
// tools/validate_obs.py --kind report, and --out writes it atomically.
// See docs/OBSERVABILITY.md.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "obs/doctor.hpp"
#include "obs/ring.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lrdq_doctor bundle DIR          (triage a diagnostics bundle)\n"
    "       lrdq_doctor access-log FILE     (triage a JSONL access log)\n"
    "       lrdq_doctor socket PATH [--timeout-ms MS]\n"
    "                                       (dump + triage a live lrdq_serve;\n"
    "                                       waits up to MS, default 120000,\n"
    "                                       for its answer, else exits 5)\n"
    "       lrdq_doctor query ID [--access-log FILE] [--bundle DIR]\n"
    "                   [--profile FILE] [--trace FILE]\n"
    "                                       (cross-artifact join on one query_id)\n"
    "       lrdq_doctor profile TRACE.json  (wall-time profile of a trace)\n"
    "       lrdq_doctor selftime PROFILE.jsonl\n"
    "                                       (per-frame self/total CPU samples)\n"
    "       lrdq_doctor diff-manifest A.json B.json\n"
    "       lrdq_doctor diff-metrics A.json B.json\n"
    "       lrdq_doctor --help | --version\n"
    "every subcommand takes [--top N] [--json] [--out FILE]; --out writes\n"
    "      atomically and a failed write exits 5.\n"
    "triage: incidents (crash / failpoint / deadline / shed) with the\n"
    "      flight-recorder timeline before each, top slow queries, queue\n"
    "      pressure, cache hit rate by tier. --json emits one object\n"
    "      (\"kind\": \"doctor\") instead of text.\n"
    "query: every artifact stamps the same 64-bit query_id (decimal or\n"
    "      0x-hex accepted); query joins the access record, the flight\n"
    "      timeline, the trace spans and the profile samples carrying it\n"
    "      across whichever sources are given (at least one).\n"
    "selftime folds a CPU profile (lrd-profile-v1 JSONL, --profile-out /\n"
    "      LRDQ_PROFILE) into a per-frame self/total sample table.\n"
    "exit codes: 0 ok, 2 usage, 3 bad config, 4 parse, 5 I/O";

std::uint64_t parse_query_id(const std::string& text) {
  try {
    std::size_t used = 0;
    // base 0: accepts the decimal form the access log carries and the
    // 0x-hex form an operator may copy from a crash report.
    const unsigned long long v = std::stoull(text, &used, 0);
    if (used != text.size() || v == 0) throw std::invalid_argument(text);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("query expects a nonzero integer id, got '" + text + "'");
  }
}

/// The value of a successful analysis; its diagnostics otherwise.
template <typename T>
T take(lrd::Expected<T> result) {
  if (!result) lrd::throw_error(result.diagnostics());
  return std::move(result).take();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrd;
  return cli::run_tool(kUsage, [&] {
    // Subcommand and operands are positional; everything after them is
    // flag territory handed to cli::Args (which rejects positionals).
    std::string command;
    std::vector<std::string> operands;
    int next = 1;
    for (; next < argc && std::strncmp(argv[next], "--", 2) != 0; ++next) {
      if (command.empty())
        command = argv[next];
      else
        operands.push_back(argv[next]);
    }
    std::vector<std::string> known = {"top", "out"};
    if (command == "query") known.insert(known.end(), {"bundle", "profile", "trace"});
    if (command == "socket") known.push_back("timeout-ms");
    cli::Args args(argc - (next - 1), argv + (next - 1), known, {"json"});
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("lrdq_doctor");

    obs::doctor::Options opt;
    opt.top = args.get_size("top", 10);
    opt.json = args.has("json");
    opt.timeout_ms = args.get_size("timeout-ms", opt.timeout_ms);
    const auto want = [&](std::size_t n) {
      if (operands.size() == n) return;
      throw std::invalid_argument("'" + command + "' takes " + std::to_string(n) + " operand" +
                                  (n == 1 ? "" : "s") + ", got " +
                                  std::to_string(operands.size()));
    };
    const auto load = [&](std::size_t i) { return take(obs::json::parse_file(operands[i])); };

    std::string report;
    if (command == "bundle") {
      want(1);
      report = take(obs::doctor::triage_bundle(operands[0], opt));
    } else if (command == "access-log") {
      want(1);
      report = take(obs::doctor::triage_access_log(operands[0], opt));
    } else if (command == "socket") {
      want(1);
      report = take(obs::doctor::triage_socket(operands[0], opt));
    } else if (command == "query") {
      want(1);
      obs::doctor::QuerySources src;
      src.access_log = args.get("access-log", "");
      src.bundle_dir = args.get("bundle", "");
      src.profile = args.get("profile", "");
      src.trace = args.get("trace", "");
      report = take(obs::doctor::triage_query(parse_query_id(operands[0]), src, opt));
    } else if (command == "profile") {
      want(1);
      const obs::TraceProfile p = take(obs::profile_trace(load(0), opt.top));
      report = opt.json ? p.to_json() : p.to_text();
    } else if (command == "selftime") {
      want(1);
      const obs::SelfTimeTable t =
          take(obs::profile_selftime(take(obs::json::read_file(operands[0]))));
      report = opt.json ? t.to_json(opt.top) : t.to_text(opt.top);
    } else if (command == "diff-manifest") {
      want(2);
      const obs::ManifestDiff d = take(obs::diff_manifests(load(0), load(1)));
      report = opt.json ? d.to_json() : d.to_text(opt.top);
    } else if (command == "diff-metrics") {
      want(2);
      const obs::MetricsDiff d = take(obs::diff_metrics(load(0), load(1)));
      report = opt.json ? d.to_json() : d.to_text();
    } else {
      throw std::invalid_argument(command.empty() ? "missing subcommand"
                                                  : "unknown subcommand '" + command + "'");
    }

    const std::string out_path = args.get("out", "");
    if (out_path.empty()) {
      std::fputs(report.c_str(), stdout);
      return 0;
    }
    if (!obs::write_file_atomic(out_path, report))
      throw_error(make_diagnostics(ErrorCategory::kIo, "lrdq_doctor", "--out path is writable",
                                   "cannot write " + out_path));
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  });
}
