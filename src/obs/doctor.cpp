#include "obs/doctor.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "obs/json.hpp"

namespace lrd::obs::doctor {

namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  const int n = std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return std::string(buf, n < 0 ? 0 : std::min<std::size_t>(static_cast<std::size_t>(n),
                                                            sizeof buf - 1));
}

lrd::Diagnostics io_error(const std::string& path, const std::string& why) {
  return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.doctor",
                               "triage input is readable", why + ": " + path);
}

/// One flight event as read back from flight.jsonl.
struct FE {
  double ts_us = 0.0;
  std::string kind, tag;
  std::uint64_t qid = 0, a = 0, b = 0, tid = 0;
  double x = 0.0;
};

bool is_incident_kind(const std::string& k) {
  return k == "crash_signal" || k == "failpoint" || k == "deadline_exceeded" ||
         k == "query_shed";
}

bool is_finish_kind(const std::string& k) {
  return k == "query_finished" || k == "solve_finish";
}

/// Reads flight.jsonl leniently: a torn final line (disk full during a
/// crash dump) is counted, not fatal — the intact events still triage.
lrd::Expected<std::vector<FE>> load_flight(const std::string& path, std::size_t* malformed) {
  std::ifstream in(path);
  if (!in.is_open()) return io_error(path, "cannot open flight recorder tail");
  std::vector<FE> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = json::parse(line);
    if (!parsed || !parsed.value().is_object()) {
      if (malformed != nullptr) ++*malformed;
      continue;
    }
    const json::Value& v = parsed.value();
    FE e;
    e.ts_us = v.number_at("ts_us");
    e.qid = static_cast<std::uint64_t>(v.number_at("qid"));
    e.kind = v.string_at("kind", "unknown");
    e.tag = v.string_at("tag");
    e.a = static_cast<std::uint64_t>(v.number_at("a"));
    e.b = static_cast<std::uint64_t>(v.number_at("b"));
    e.x = v.number_at("x");
    e.tid = static_cast<std::uint64_t>(v.number_at("tid"));
    out.push_back(std::move(e));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FE& a, const FE& b) { return a.ts_us < b.ts_us; });
  return out;
}

std::string event_detail(const FE& e) {
  if (e.kind == "crash_signal") return fmt("signal %llu (%s)", (unsigned long long)e.a, e.tag.c_str());
  if (e.kind == "failpoint") return fmt("site %s (mode %llu)", e.tag.c_str(), (unsigned long long)e.a);
  if (e.kind == "query_finished")
    return fmt("id=%s code=%llu wall=%.3fms queue=%.3fms", e.tag.c_str(),
               (unsigned long long)e.a, e.x, static_cast<double>(e.b) / 1e3);
  if (e.kind == "query_admitted" || e.kind == "query_shed")
    return fmt("id=%s depth=%llu", e.tag.c_str(), (unsigned long long)e.a);
  if (e.kind == "query_started") return fmt("id=%s", e.tag.c_str());
  if (e.kind == "solve_level")
    return fmt("level %llu, %llu bins", (unsigned long long)e.a, (unsigned long long)e.b);
  if (e.kind == "solve_finish")
    return fmt("%llu iterations, %llu bins, %.3fms", (unsigned long long)e.a,
               (unsigned long long)e.b, e.x);
  if (e.kind == "deadline_exceeded") return fmt("deadline %.0fms (%s)", e.x, e.tag.c_str());
  if (e.kind == "retry")
    return fmt("attempt %llu, max_bins %llu", (unsigned long long)e.a, (unsigned long long)e.b);
  if (e.kind == "cache_hit") return fmt("key %llu (%s)", (unsigned long long)e.a, e.b != 0 ? "disk" : "memory");
  if (e.kind == "cache_miss" || e.kind == "cache_store" || e.kind == "cache_evict")
    return fmt("key %llu", (unsigned long long)e.a);
  if (e.kind == "dump") return e.tag;
  return e.tag;
}

/// Everything the two renderers (text / JSON) need, computed once.
struct BundleSummary {
  std::string dir, tool, reason, git, build_type, compiler;
  bool crash = false;
  long long signal = -1;
  unsigned long long pid = 0, timestamp = 0;
  unsigned long long flight_dropped = 0, profiler_dropped = 0;
  std::vector<FE> events;  // ts-sorted
  std::size_t malformed = 0;
  std::size_t threads = 0;
  double span_ms = 0.0;

  std::vector<std::size_t> incidents;  // indices into events
  std::vector<const FE*> slow;         // finish events, slowest first

  unsigned long long admitted = 0, shed = 0, deadline = 0, started = 0;
  unsigned long long max_depth = 0;
  double depth_sum = 0.0;
  unsigned long long shed_max_depth = 0;

  unsigned long long cache_hits = 0, cache_disk_hits = 0, cache_misses = 0;
  unsigned long long cache_stores = 0, cache_evicts = 0;

  // From metrics.json when present.
  bool have_latency = false;
  double lat_p50 = 0.0, lat_p90 = 0.0, lat_p99 = 0.0;
  unsigned long long lat_count = 0;
};

void summarize_events(BundleSummary& s) {
  std::vector<std::uint64_t> tids;
  double t0 = 0.0, t1 = 0.0;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const FE& e = s.events[i];
    if (i == 0) t0 = e.ts_us;
    t1 = e.ts_us;
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) tids.push_back(e.tid);
    if (is_incident_kind(e.kind)) s.incidents.push_back(i);
    if (is_finish_kind(e.kind)) s.slow.push_back(&e);
    if (e.kind == "query_admitted") {
      ++s.admitted;
      s.max_depth = std::max(s.max_depth, (unsigned long long)e.a);
      s.depth_sum += static_cast<double>(e.a);
    } else if (e.kind == "query_shed") {
      ++s.shed;
      s.shed_max_depth = std::max(s.shed_max_depth, (unsigned long long)e.a);
    } else if (e.kind == "query_started") {
      ++s.started;
    } else if (e.kind == "deadline_exceeded") {
      ++s.deadline;
    } else if (e.kind == "cache_hit") {
      ++s.cache_hits;
      if (e.b != 0) ++s.cache_disk_hits;
    } else if (e.kind == "cache_miss") {
      ++s.cache_misses;
    } else if (e.kind == "cache_store") {
      ++s.cache_stores;
    } else if (e.kind == "cache_evict") {
      ++s.cache_evicts;
    }
  }
  s.threads = tids.size();
  s.span_ms = (t1 - t0) / 1e3;
  // Serve bundles carry both per-query finishes and the underlying
  // solver finishes; prefer the query view (its a/b really are code and
  // queue wait) and only fall back to raw solves for solver-only tools.
  const bool has_query_finish =
      std::any_of(s.slow.begin(), s.slow.end(),
                  [](const FE* e) { return e->kind == "query_finished"; });
  if (has_query_finish)
    s.slow.erase(std::remove_if(s.slow.begin(), s.slow.end(),
                                [](const FE* e) { return e->kind != "query_finished"; }),
                 s.slow.end());
  std::stable_sort(s.slow.begin(), s.slow.end(),
                   [](const FE* a, const FE* b) { return a->x > b->x; });
}

void read_metrics(BundleSummary& s, const std::string& path) {
  auto parsed = json::parse_file(path);
  if (!parsed || !parsed.value().is_object()) return;
  if (const json::Value* h = parsed.value().find("lrd_serve_query_seconds");
      h != nullptr && h->is_object()) {
    s.have_latency = true;
    s.lat_count = static_cast<unsigned long long>(h->number_at("count"));
    s.lat_p50 = h->number_at("p50") * 1e3;
    s.lat_p90 = h->number_at("p90") * 1e3;
    s.lat_p99 = h->number_at("p99") * 1e3;
  }
}

std::string render_bundle_text(const BundleSummary& s, const Options& opt) {
  std::string out;
  out += "lrdq_doctor triage — bundle " + s.dir + "\n";
  out += fmt("tool: %s   reason: %s   crash: %s", s.tool.c_str(), s.reason.c_str(),
             s.crash ? "yes" : "no");
  if (s.crash && s.signal >= 0) out += fmt(" (signal %lld)", s.signal);
  out += fmt("   pid: %llu\n", s.pid);
  out += fmt("build: %s (%s, %s)\n", s.git.c_str(), s.build_type.c_str(), s.compiler.c_str());
  out += fmt("events: %zu across %zu threads, spanning %.1f ms", s.events.size(), s.threads,
             s.span_ms);
  if (s.malformed != 0) out += fmt(" (%zu malformed lines skipped)", s.malformed);
  out += "\n";
  if (s.flight_dropped != 0 || s.profiler_dropped != 0)
    out += fmt("dropped: %llu flight events, %llu profiler samples (the tails are incomplete)\n",
               s.flight_dropped, s.profiler_dropped);

  out += fmt("\n== incidents (%zu) ==\n", s.incidents.size());
  if (s.incidents.empty()) out += "  none recorded\n";
  const std::size_t shown = std::min(s.incidents.size(), opt.top);
  for (std::size_t n = 0; n < shown; ++n) {
    // Walk from the back: the newest incidents are the interesting ones.
    const std::size_t i = s.incidents[s.incidents.size() - 1 - n];
    const FE& e = s.events[i];
    out += fmt("[%zu] %s at t=%.3f ms (tid %llu): %s\n", n + 1, e.kind.c_str(), e.ts_us / 1e3,
               (unsigned long long)e.tid, event_detail(e).c_str());
    const std::size_t from = i > opt.timeline ? i - opt.timeline : 0;
    for (std::size_t k = from; k < i; ++k) {
      const FE& t = s.events[k];
      out += fmt("      t%+.3fms  %-18s %s\n", (t.ts_us - e.ts_us) / 1e3, t.kind.c_str(),
                 event_detail(t).c_str());
    }
  }
  if (s.incidents.size() > shown)
    out += fmt("  ... and %zu earlier incidents\n", s.incidents.size() - shown);

  out += fmt("\n== slow queries (top %zu of %zu finished) ==\n",
             std::min(opt.top, s.slow.size()), s.slow.size());
  if (s.slow.empty()) out += "  none recorded\n";
  else out += "     wall_ms   queue_ms  code  id\n";
  for (std::size_t n = 0; n < std::min(opt.top, s.slow.size()); ++n) {
    const FE& e = *s.slow[n];
    out += fmt("  %10.3f %10.3f  %4llu  %s\n", e.x, static_cast<double>(e.b) / 1e3,
               (unsigned long long)e.a, e.tag.empty() ? "-" : e.tag.c_str());
  }

  out += "\n== queue ==\n";
  out += fmt("  admitted %llu (mean depth %.1f, max %llu), started %llu, shed %llu",
             s.admitted, s.admitted != 0 ? s.depth_sum / static_cast<double>(s.admitted) : 0.0,
             s.max_depth, s.started, s.shed);
  if (s.shed != 0) out += fmt(" (at depth up to %llu)", s.shed_max_depth);
  out += fmt(", deadline_exceeded %llu\n", s.deadline);
  if (s.have_latency)
    out += fmt("  latency (metrics): count %llu, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
               s.lat_count, s.lat_p50, s.lat_p90, s.lat_p99);

  out += "\n== cache ==\n";
  const unsigned long long lookups = s.cache_hits + s.cache_misses;
  out += fmt("  %llu hits (%llu memory / %llu disk), %llu misses, %llu stores, %llu evictions",
             s.cache_hits, s.cache_hits - s.cache_disk_hits, s.cache_disk_hits, s.cache_misses,
             s.cache_stores, s.cache_evicts);
  if (lookups != 0)
    out += fmt(" — hit rate %.1f%%", 100.0 * static_cast<double>(s.cache_hits) /
                                         static_cast<double>(lookups));
  out += "\n";
  return out;
}

void append_event_json(std::string& out, const FE& e) {
  out += "{ \"ts_us\": " + json::number_text(e.ts_us);
  out += ", \"qid\": " + std::to_string(e.qid);
  out += ", \"kind\": " + json::escape(e.kind);
  out += ", \"tag\": " + json::escape(e.tag);
  out += ", \"a\": " + std::to_string(e.a);
  out += ", \"b\": " + std::to_string(e.b);
  out += ", \"x\": " + json::number_text(e.x);
  out += ", \"tid\": " + std::to_string(e.tid) + " }";
}

std::string render_bundle_json(const BundleSummary& s, const Options& opt) {
  std::string out = "{\n  \"kind\": \"doctor\", \"version\": 1, \"source\": \"bundle\"";
  out += ",\n  \"bundle\": { \"dir\": " + json::escape(s.dir);
  out += ", \"tool\": " + json::escape(s.tool);
  out += ", \"reason\": " + json::escape(s.reason);
  out += std::string(", \"crash\": ") + (s.crash ? "true" : "false");
  if (s.signal >= 0) out += ", \"signal\": " + std::to_string(s.signal);
  out += ", \"pid\": " + std::to_string(s.pid);
  out += ", \"events\": " + std::to_string(s.events.size());
  out += ", \"threads\": " + std::to_string(s.threads);
  out += ", \"flight_dropped\": " + std::to_string(s.flight_dropped);
  out += ", \"profiler_dropped\": " + std::to_string(s.profiler_dropped);
  out += ", \"git\": " + json::escape(s.git) + " }";

  out += ",\n  \"incidents\": [";
  const std::size_t shown = std::min(s.incidents.size(), opt.top);
  for (std::size_t n = 0; n < shown; ++n) {
    const std::size_t i = s.incidents[s.incidents.size() - 1 - n];
    out += n == 0 ? "\n    " : ",\n    ";
    out += "{ \"event\": ";
    append_event_json(out, s.events[i]);
    out += ", \"timeline\": [";
    const std::size_t from = i > opt.timeline ? i - opt.timeline : 0;
    for (std::size_t k = from; k < i; ++k) {
      if (k != from) out += ", ";
      append_event_json(out, s.events[k]);
    }
    out += "] }";
  }
  out += " ]";

  out += ",\n  \"slow_queries\": [";
  for (std::size_t n = 0; n < std::min(opt.top, s.slow.size()); ++n) {
    const FE& e = *s.slow[n];
    out += n == 0 ? "\n    " : ",\n    ";
    out += "{ \"id\": " + json::escape(e.tag);
    out += ", \"wall_ms\": " + json::number_text(e.x);
    out += ", \"queue_ms\": " + json::number_text(static_cast<double>(e.b) / 1e3);
    out += ", \"code\": " + std::to_string(e.a) + " }";
  }
  out += " ]";

  out += ",\n  \"queue\": { \"admitted\": " + std::to_string(s.admitted);
  out += ", \"started\": " + std::to_string(s.started);
  out += ", \"shed\": " + std::to_string(s.shed);
  out += ", \"deadline_exceeded\": " + std::to_string(s.deadline);
  out += ", \"max_depth\": " + std::to_string(s.max_depth);
  out += ", \"mean_depth\": " +
         json::number_text(s.admitted != 0 ? s.depth_sum / static_cast<double>(s.admitted) : 0.0);
  if (s.have_latency) {
    out += ", \"latency_ms\": { \"count\": " + std::to_string(s.lat_count);
    out += ", \"p50\": " + json::number_text(s.lat_p50);
    out += ", \"p90\": " + json::number_text(s.lat_p90);
    out += ", \"p99\": " + json::number_text(s.lat_p99) + " }";
  }
  out += " }";

  const unsigned long long lookups = s.cache_hits + s.cache_misses;
  out += ",\n  \"cache\": { \"hits\": " + std::to_string(s.cache_hits);
  out += ", \"memory_hits\": " + std::to_string(s.cache_hits - s.cache_disk_hits);
  out += ", \"disk_hits\": " + std::to_string(s.cache_disk_hits);
  out += ", \"misses\": " + std::to_string(s.cache_misses);
  out += ", \"stores\": " + std::to_string(s.cache_stores);
  out += ", \"evictions\": " + std::to_string(s.cache_evicts);
  out += ", \"hit_rate\": " +
         json::number_text(lookups != 0
                               ? static_cast<double>(s.cache_hits) / static_cast<double>(lookups)
                               : 0.0);
  out += " }\n}\n";
  return out;
}

/// One parsed access-log record (the fields triage needs).
struct AR {
  std::string id, op, status, tier, tool, diagnostic;
  std::uint64_t query_id = 0;
  int code = 0;
  double wall_ms = 0.0, queue_ms = 0.0;
  bool cache_hit = false, slow = false;
};

/// Reads a JSONL access log leniently (non-lrd-access-v1 lines counted
/// as malformed, never fatal while at least one record parses).
lrd::Expected<std::vector<AR>> load_access_log(const std::string& path,
                                               std::size_t* malformed) {
  std::ifstream in(path);
  if (!in.is_open()) return io_error(path, "cannot open access log");
  std::vector<AR> recs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = json::parse(line);
    if (!parsed || !parsed.value().is_object() ||
        parsed.value().string_at("schema") != "lrd-access-v1") {
      if (malformed != nullptr) ++*malformed;
      continue;
    }
    const json::Value& v = parsed.value();
    AR r;
    r.id = v.string_at("id");
    r.query_id = static_cast<std::uint64_t>(v.number_at("query_id"));
    r.tool = v.string_at("tool");
    r.op = v.string_at("op");
    r.status = v.string_at("status");
    r.tier = v.string_at("cache_tier", "none");
    r.code = static_cast<int>(v.number_at("code"));
    r.wall_ms = v.number_at("wall_ms");
    r.queue_ms = v.number_at("queue_ms");
    r.cache_hit = v.find("cache_hit") != nullptr && v.find("cache_hit")->as_bool();
    r.slow = v.find("slow") != nullptr && v.find("slow")->as_bool();
    r.diagnostic = v.string_at("diagnostic");
    recs.push_back(std::move(r));
  }
  return recs;
}

/// One profile record (folded lrd-profile-v1 line, or a raw crash-tail
/// sample — the tail carries count 1 and a hex-address stack).
struct PR {
  std::uint64_t query_id = 0, tid = 0;
  std::string stack;
  unsigned long long count = 1;
  double ts_us = 0.0;
};

lrd::Expected<std::vector<PR>> load_profile(const std::string& path, std::size_t* malformed) {
  std::ifstream in(path);
  if (!in.is_open()) return io_error(path, "cannot open profile");
  std::vector<PR> recs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = json::parse(line);
    if (!parsed || !parsed.value().is_object() ||
        parsed.value().string_at("schema") != "lrd-profile-v1") {
      if (malformed != nullptr) ++*malformed;
      continue;
    }
    const json::Value& v = parsed.value();
    PR r;
    r.query_id = static_cast<std::uint64_t>(v.number_at("query_id"));
    r.tid = static_cast<std::uint64_t>(v.number_at("tid"));
    r.stack = v.string_at("stack");
    r.count = static_cast<unsigned long long>(v.number_at("count", 1.0));
    r.ts_us = v.number_at("ts_us");
    recs.push_back(std::move(r));
  }
  return recs;
}

}  // namespace

lrd::Expected<std::string> triage_bundle(const std::string& dir, const Options& opt) {
  auto manifest = json::parse_file(dir + "/bundle.json");
  if (!manifest) {
    lrd::Diagnostics d = manifest.diagnostics();
    d.component = "obs.doctor";
    return d;
  }
  const json::Value& m = manifest.value();
  if (!m.is_object() || m.string_at("schema") != "lrd-bundle-v1")
    return lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.doctor",
                                 "bundle.json declares schema lrd-bundle-v1",
                                 "not a diagnostics bundle: " + dir);

  BundleSummary s;
  s.dir = dir;
  s.tool = m.string_at("tool", "?");
  s.reason = m.string_at("reason", "?");
  s.crash = m.find("crash") != nullptr && m.find("crash")->as_bool();
  if (const json::Value* sig = m.find_non_null("signal"))
    s.signal = static_cast<long long>(sig->as_number(-1.0));
  s.pid = static_cast<unsigned long long>(m.number_at("pid"));
  s.timestamp = static_cast<unsigned long long>(m.number_at("timestamp_unix"));
  s.flight_dropped = static_cast<unsigned long long>(m.number_at("flight_dropped"));
  s.profiler_dropped = static_cast<unsigned long long>(m.number_at("profiler_dropped"));

  if (auto build = json::parse_file(dir + "/build.json"); build && build.value().is_object()) {
    s.git = build.value().string_at("git", "unknown");
    s.build_type = build.value().string_at("build_type", "?");
    s.compiler = build.value().string_at("compiler", "?");
  }

  auto events = load_flight(dir + "/flight.jsonl", &s.malformed);
  if (!events) return events.diagnostics();
  s.events = std::move(events.value());
  summarize_events(s);
  read_metrics(s, dir + "/metrics.json");

  return opt.json ? render_bundle_json(s, opt) : render_bundle_text(s, opt);
}

lrd::Expected<std::string> triage_access_log(const std::string& path, const Options& opt) {
  std::size_t malformed = 0;
  auto loaded = load_access_log(path, &malformed);
  if (!loaded) return loaded.diagnostics();
  const std::vector<AR>& recs = loaded.value();
  if (recs.empty() && malformed != 0)
    return lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.doctor",
                                 "access log lines carry schema lrd-access-v1",
                                 "no parsable records in " + path);

  std::vector<const AR*> by_wall;
  by_wall.reserve(recs.size());
  std::size_t slow_count = 0, ok = 0, failed = 0, hits = 0;
  double wall_sum = 0.0, queue_sum = 0.0;
  for (const AR& r : recs) {
    by_wall.push_back(&r);
    if (r.slow) ++slow_count;
    if (r.code == 0) ++ok; else ++failed;
    if (r.cache_hit) ++hits;
    wall_sum += r.wall_ms;
    queue_sum += r.queue_ms;
  }
  std::stable_sort(by_wall.begin(), by_wall.end(),
                   [](const AR* a, const AR* b) { return a->wall_ms > b->wall_ms; });
  const std::size_t top = std::min(opt.top, by_wall.size());
  const double n = recs.empty() ? 1.0 : static_cast<double>(recs.size());

  if (opt.json) {
    std::string out = "{\n  \"kind\": \"doctor\", \"version\": 1, \"source\": \"access-log\"";
    out += ",\n  \"records\": " + std::to_string(recs.size());
    out += ", \"malformed\": " + std::to_string(malformed);
    out += ", \"ok\": " + std::to_string(ok);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"slow\": " + std::to_string(slow_count);
    out += ", \"cache_hits\": " + std::to_string(hits);
    out += ", \"mean_wall_ms\": " + json::number_text(wall_sum / n);
    out += ", \"mean_queue_ms\": " + json::number_text(queue_sum / n);
    out += ",\n  \"slow_queries\": [";
    for (std::size_t i = 0; i < top; ++i) {
      const AR& r = *by_wall[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"id\": " + json::escape(r.id);
      out += ", \"op\": " + json::escape(r.op);
      out += ", \"status\": " + json::escape(r.status);
      out += ", \"code\": " + std::to_string(r.code);
      out += ", \"wall_ms\": " + json::number_text(r.wall_ms);
      out += ", \"queue_ms\": " + json::number_text(r.queue_ms);
      out += ", \"cache_tier\": " + json::escape(r.tier) + " }";
    }
    out += " ]\n}\n";
    return out;
  }

  std::string out;
  out += "lrdq_doctor triage — access log " + path + "\n";
  out += fmt("records: %zu (%zu ok, %zu failed, %zu flagged slow)", recs.size(), ok, failed,
             slow_count);
  if (malformed != 0) out += fmt(", %zu malformed lines skipped", malformed);
  out += "\n";
  out += fmt("latency: mean wall %.3f ms, mean queue wait %.3f ms; cache hits %zu/%zu\n",
             wall_sum / n, queue_sum / n, hits, recs.size());
  out += fmt("\n== slow queries (top %zu) ==\n", top);
  if (top == 0) out += "  none recorded\n";
  else out += "     wall_ms   queue_ms  code  status              tier    id\n";
  for (std::size_t i = 0; i < top; ++i) {
    const AR& r = *by_wall[i];
    out += fmt("  %10.3f %10.3f  %4d  %-18s  %-6s  %s\n", r.wall_ms, r.queue_ms, r.code,
               r.status.c_str(), r.tier.c_str(), r.id.empty() ? "-" : r.id.c_str());
  }
  return out;
}

lrd::Expected<std::string> triage_socket(const std::string& socket_path, const Options& opt) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path)
    return lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "obs.doctor",
                                 "socket path fits sockaddr_un",
                                 "socket path invalid: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (fd >= 0) ::close(fd);
    return io_error(socket_path,
                    std::string("cannot connect to daemon: ") + std::strerror(errno));
  }
  const std::string query = "{\"op\": \"dump\", \"id\": \"doctor\"}\n";
  std::size_t off = 0;
  while (off < query.size()) {
    const ssize_t n = ::send(fd, query.data() + off, query.size() - off, MSG_NOSIGNAL);
    if (n <= 0 && errno != EINTR) break;
    if (n > 0) off += static_cast<std::size_t>(n);
  }
  std::string buf;
  char chunk[4096];
  while (buf.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto nl = buf.find('\n');
  if (nl == std::string::npos)
    return io_error(socket_path, "no response line from daemon");
  auto parsed = json::parse(buf.substr(0, nl));
  if (!parsed || !parsed.value().is_object())
    return lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.doctor",
                                 "dump response is a JSON object",
                                 "malformed response from " + socket_path);
  const json::Value* b = parsed.value().find("bundle");
  if (b == nullptr || !b->is_string()) {
    std::string why = "daemon did not report a bundle path";
    if (const json::Value* d = parsed.value().find("diagnostic");
        d != nullptr && d->is_string())
      why += ": " + d->as_string();
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.doctor",
                                 "daemon was started with --dump-dir", why);
  }
  return triage_bundle(b->as_string(), opt);
}

namespace {

/// One trace span (or instant) carrying the query id in its args.
struct TS {
  std::string name, phase;
  double ts_us = 0.0, dur_us = 0.0;
  std::uint64_t tid = 0;
};

std::string qid_text(std::uint64_t qid) {
  return fmt("%llu (0x%llx)", (unsigned long long)qid, (unsigned long long)qid);
}

}  // namespace

lrd::Expected<std::string> triage_query(std::uint64_t query_id, const QuerySources& sources,
                                        const Options& opt) {
  if (sources.access_log.empty() && sources.bundle_dir.empty() && sources.profile.empty() &&
      sources.trace.empty())
    return lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "obs.doctor",
                                 "at least one artifact source is given",
                                 "triage_query needs an access log, bundle, profile or trace");

  std::vector<AR> access;
  std::size_t access_total = 0;
  if (!sources.access_log.empty()) {
    auto loaded = load_access_log(sources.access_log, nullptr);
    if (!loaded) return loaded.diagnostics();
    access_total = loaded.value().size();
    for (AR& r : loaded.value())
      if (r.query_id == query_id) access.push_back(std::move(r));
  }

  std::vector<FE> flight;
  std::size_t flight_total = 0;
  if (!sources.bundle_dir.empty()) {
    std::size_t malformed = 0;
    auto loaded = load_flight(sources.bundle_dir + "/flight.jsonl", &malformed);
    if (!loaded) return loaded.diagnostics();
    flight_total = loaded.value().size();
    for (FE& e : loaded.value())
      if (e.qid == query_id) flight.push_back(std::move(e));
  }

  std::vector<PR> profile;
  std::size_t profile_total = 0;
  unsigned long long samples = 0;
  for (const std::string& path :
       {sources.profile,
        sources.bundle_dir.empty() ? std::string() : sources.bundle_dir + "/profile.jsonl"}) {
    if (path.empty()) continue;
    auto loaded = load_profile(path, nullptr);
    if (!loaded) {
      // The bundle's profile.jsonl is best-effort (absent when the
      // crashed process had no profiler armed); an explicit --profile
      // that cannot be read is the operator's mistake and stays fatal.
      if (path == sources.profile) return loaded.diagnostics();
      continue;
    }
    profile_total += loaded.value().size();
    for (PR& r : loaded.value())
      if (r.query_id == query_id) {
        samples += r.count;
        profile.push_back(std::move(r));
      }
  }
  std::stable_sort(profile.begin(), profile.end(),
                   [](const PR& a, const PR& b) { return a.count > b.count; });

  std::vector<TS> spans;
  std::size_t span_total = 0;
  if (!sources.trace.empty()) {
    auto parsed = json::parse_file(sources.trace);
    if (!parsed) return parsed.diagnostics();
    const json::Value* events = parsed.value().find("traceEvents");
    if (events == nullptr || !events->is_array())
      return lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.doctor",
                                   "trace file carries a traceEvents array",
                                   "not a Chrome trace: " + sources.trace);
    for (const json::Value& e : events->items()) {
      if (!e.is_object()) continue;
      const std::string ph = e.string_at("ph");
      if (ph != "X" && ph != "i") continue;
      ++span_total;
      const json::Value* a = e.find("args");
      if (a == nullptr || !a->is_object()) continue;
      if (static_cast<std::uint64_t>(a->number_at("qid")) != query_id) continue;
      TS s;
      s.name = e.string_at("name", "?");
      s.phase = ph;
      s.ts_us = e.number_at("ts");
      s.dur_us = e.number_at("dur");
      s.tid = static_cast<std::uint64_t>(e.number_at("tid"));
      spans.push_back(std::move(s));
    }
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TS& a, const TS& b) { return a.ts_us < b.ts_us; });
  }

  if (opt.json) {
    std::string out = "{\n  \"kind\": \"doctor\", \"version\": 1, \"source\": \"query\"";
    out += ",\n  \"query_id\": " + std::to_string(query_id);
    out += ",\n  \"access_records\": [";
    for (std::size_t i = 0; i < access.size(); ++i) {
      const AR& r = access[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"id\": " + json::escape(r.id);
      out += ", \"tool\": " + json::escape(r.tool);
      out += ", \"op\": " + json::escape(r.op);
      out += ", \"status\": " + json::escape(r.status);
      out += ", \"code\": " + std::to_string(r.code);
      out += ", \"wall_ms\": " + json::number_text(r.wall_ms);
      out += ", \"queue_ms\": " + json::number_text(r.queue_ms);
      out += ", \"cache_tier\": " + json::escape(r.tier);
      if (!r.diagnostic.empty()) out += ", \"diagnostic\": " + json::escape(r.diagnostic);
      out += " }";
    }
    out += " ]";
    out += ",\n  \"flight\": [";
    for (std::size_t i = 0; i < flight.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      append_event_json(out, flight[i]);
    }
    out += " ]";
    out += ",\n  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TS& s = spans[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"name\": " + json::escape(s.name);
      out += ", \"ph\": " + json::escape(s.phase);
      out += ", \"ts_us\": " + json::number_text(s.ts_us);
      out += ", \"dur_us\": " + json::number_text(s.dur_us);
      out += ", \"tid\": " + std::to_string(s.tid) + " }";
    }
    out += " ]";
    out += ",\n  \"profile\": { \"samples\": " + std::to_string(samples);
    out += ", \"stacks\": [";
    for (std::size_t i = 0; i < profile.size(); ++i) {
      const PR& r = profile[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"stack\": " + json::escape(r.stack);
      out += ", \"count\": " + std::to_string(r.count) + " }";
    }
    out += " ] }";
    out += ",\n  \"totals\": { \"access_records\": " + std::to_string(access_total);
    out += ", \"flight_events\": " + std::to_string(flight_total);
    out += ", \"trace_events\": " + std::to_string(span_total);
    out += ", \"profile_records\": " + std::to_string(profile_total) + " }\n}\n";
    return out;
  }

  std::string out;
  out += "lrdq_doctor triage — query " + qid_text(query_id) + "\n";
  if (!sources.access_log.empty()) out += "  access log: " + sources.access_log + "\n";
  if (!sources.bundle_dir.empty()) out += "  bundle:     " + sources.bundle_dir + "\n";
  if (!sources.profile.empty()) out += "  profile:    " + sources.profile + "\n";
  if (!sources.trace.empty()) out += "  trace:      " + sources.trace + "\n";

  if (!sources.access_log.empty()) {
    out += fmt("\n== access records (%zu of %zu) ==\n", access.size(), access_total);
    if (access.empty()) out += "  none carry this query_id\n";
    for (const AR& r : access) {
      out += fmt("  tool=%s op=%s status=%s code=%d wall=%.3fms queue=%.3fms tier=%s id=%s\n",
                 r.tool.empty() ? "-" : r.tool.c_str(), r.op.c_str(), r.status.c_str(), r.code,
                 r.wall_ms, r.queue_ms, r.tier.c_str(), r.id.empty() ? "-" : r.id.c_str());
      if (!r.diagnostic.empty()) out += fmt("      diagnostic: %s\n", r.diagnostic.c_str());
    }
  }

  if (!sources.bundle_dir.empty()) {
    out += fmt("\n== flight timeline (%zu of %zu events) ==\n", flight.size(), flight_total);
    if (flight.empty()) out += "  none carry this query_id\n";
    const std::size_t shown = std::min(flight.size(), opt.top * 4);
    for (std::size_t i = 0; i < shown; ++i) {
      const FE& e = flight[i];
      out += fmt("  t=%10.3f ms  %-18s %s  (tid %llu)\n", e.ts_us / 1e3, e.kind.c_str(),
                 event_detail(e).c_str(), (unsigned long long)e.tid);
    }
    if (flight.size() > shown)
      out += fmt("  ... and %zu more events\n", flight.size() - shown);
  }

  if (!sources.trace.empty()) {
    out += fmt("\n== spans (%zu of %zu trace events) ==\n", spans.size(), span_total);
    if (spans.empty()) out += "  none carry this query_id\n";
    for (const TS& s : spans) {
      if (s.phase == "X")
        out += fmt("  t=%10.3f ms  %-24s %.3f ms  (tid %llu)\n", s.ts_us / 1e3, s.name.c_str(),
                   s.dur_us / 1e3, (unsigned long long)s.tid);
      else
        out += fmt("  t=%10.3f ms  %-24s instant  (tid %llu)\n", s.ts_us / 1e3, s.name.c_str(),
                   (unsigned long long)s.tid);
    }
  }

  out += fmt("\n== profile (%zu stacks, %llu samples", profile.size(), samples);
  if (profile_total != 0) out += fmt(" — %zu records scanned", profile_total);
  out += ") ==\n";
  if (profile.empty()) out += "  no samples carry this query_id\n";
  const std::size_t pshown = std::min(profile.size(), opt.top);
  for (std::size_t i = 0; i < pshown; ++i) {
    // Folded stacks routinely exceed fmt()'s buffer: append them raw.
    out += fmt("  %6llu  ", profile[i].count);
    out += profile[i].stack;
    out += '\n';
  }
  if (profile.size() > pshown)
    out += fmt("  ... and %zu more stacks\n", profile.size() - pshown);
  return out;
}

}  // namespace lrd::obs::doctor
