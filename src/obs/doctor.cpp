#include "obs/doctor.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

#include "obs/fmt.hpp"

namespace lrd::obs {

namespace {

std::string format_us(double us) {
  if (std::abs(us) >= 1e6) return fmt("%.3f s", us / 1e6);
  if (std::abs(us) >= 1e3) return fmt("%.3f ms", us / 1e3);
  return fmt("%.1f us", us);
}

std::string format_seconds(double s) { return format_us(s * 1e6); }

/// Sign-aware marker for lower-is-better quantities: increases are
/// called out as regressions, decreases as improvements.
const char* worse_if_up(double delta) {
  if (delta > 0.0) return "^ worse";
  if (delta < 0.0) return "v better";
  return "= same";
}

lrd::Diagnostics fail(lrd::ErrorCategory category, std::string expected, std::string message) {
  return lrd::make_diagnostics(category, "obs.doctor", std::move(expected), std::move(message));
}

/// One flight event as read back from flight.jsonl.
struct FE {
  double ts_us = 0.0;
  std::string kind, tag;
  unsigned long long qid = 0, a = 0, b = 0, tid = 0;
  double x = 0.0;
};

/// Reads flight.jsonl leniently: a torn final line (disk full during a
/// crash dump) is counted, not fatal — the intact events still triage.
lrd::Expected<std::vector<FE>> load_flight(const std::string& path, std::size_t* malformed) {
  auto text = json::read_file(path);
  if (!text) return text.diagnostics();
  std::vector<FE> out;
  for (const json::Value& v : json::parse_lines(text.value(), "", malformed))
    out.push_back({v.number_at("ts_us"), v.string_at("kind", "unknown"), v.string_at("tag"),
                   v.count_at("qid"), v.count_at("a"), v.count_at("b"), v.count_at("tid"),
                   v.number_at("x")});
  std::stable_sort(out.begin(), out.end(),
                   [](const FE& a, const FE& b) { return a.ts_us < b.ts_us; });
  return out;
}

/// One parsed access-log record (the fields triage needs).
struct AR {
  std::string id, op, status, tier, tool, diagnostic;
  unsigned long long query_id = 0;
  int code = 0;
  double wall_ms = 0.0, queue_ms = 0.0;
  bool cache_hit = false, slow = false;
};

/// Reads a JSONL access log leniently (non-lrd-access-v1 lines counted
/// as malformed).
lrd::Expected<std::vector<AR>> load_access_log(const std::string& path,
                                               std::size_t* malformed) {
  auto text = json::read_file(path);
  if (!text) return text.diagnostics();
  std::vector<AR> recs;
  for (const json::Value& v : json::parse_lines(text.value(), "lrd-access-v1", malformed)) {
    AR r;
    r.id = v.string_at("id");
    r.query_id = v.count_at("query_id");
    r.tool = v.string_at("tool");
    r.op = v.string_at("op");
    r.status = v.string_at("status");
    r.tier = v.string_at("cache_tier", "none");
    r.code = v.count_at<int>("code");
    r.wall_ms = v.number_at("wall_ms");
    r.queue_ms = v.number_at("queue_ms");
    r.cache_hit = v.find("cache_hit") != nullptr && v.find("cache_hit")->as_bool();
    r.slow = v.find("slow") != nullptr && v.find("slow")->as_bool();
    r.diagnostic = v.string_at("diagnostic");
    recs.push_back(std::move(r));
  }
  return recs;
}

/// One profile record: a folded lrd-profile-v1 line, or a raw crash-tail
/// sample (count 1 and a hex-address stack). The one reader behind both
/// profile_selftime and triage_query.
struct PR {
  unsigned long long query_id = 0;
  std::string stack;
  unsigned long long count = 1;
  double interval_us = 0.0;
};

std::vector<PR> profile_records(std::string_view text, std::size_t* malformed) {
  std::vector<PR> out;
  for (const json::Value& v : json::parse_lines(text, "lrd-profile-v1", malformed))
    out.push_back({v.count_at("query_id"), v.string_at("stack"),
                   v.count_at<unsigned long long>("count", 1), v.number_at("interval_us")});
  return out;
}

/// One Chrome trace event: the fields profile_trace and triage_query
/// both read, plus the raw object for what only one of them needs.
struct TE {
  std::string ph, name, cat;
  double ts = 0.0, dur = 0.0;
  long long tid = 0;
  const json::Value* raw = nullptr;
};

/// The one traceEvents walk. A non-object entry keeps its slot (with an
/// empty phase) so the event count stays the array's length.
lrd::Expected<std::vector<TE>> trace_events(const json::Value& trace) {
  const json::Value* events = trace.is_object() ? trace.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array())
    return fail(lrd::ErrorCategory::kParse, "trace carries a traceEvents array",
                "document has no traceEvents array (not a Chrome trace)");
  std::vector<TE> out;
  out.reserve(events->size());
  for (const json::Value& ev : events->items())
    out.push_back({ev.string_at("ph"), ev.string_at("name"), ev.string_at("cat"),
                   ev.number_at("ts"), ev.number_at("dur"), ev.count_at<long long>("tid"), &ev});
  return out;
}

struct SpanRec {
  std::string name;
  std::string category;
  long long tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  double child = 0.0;  ///< Duration covered by direct children.
  bool top_level = false;
};

}  // namespace

lrd::Expected<TraceProfile> profile_trace(const json::Value& trace, std::size_t top_n) {
  auto events = trace_events(trace);
  if (!events) return events.diagnostics();

  TraceProfile profile;
  profile.dropped = trace.count_at("droppedEvents");
  profile.events = events.value().size();

  std::vector<SpanRec> spans;
  std::map<std::string, std::size_t> instants;
  std::map<long long, std::string> thread_names;
  for (const TE& ev : events.value()) {
    if (ev.ph == "X") {
      spans.push_back({ev.name, ev.cat, ev.tid, ev.ts, ev.dur, 0.0, false});
    } else if (ev.ph == "i") {
      ++instants[ev.name];
    } else if (ev.ph == "M" && ev.name == "thread_name") {
      if (const json::Value* args = ev.raw->find("args"))
        thread_names[ev.tid] = args->string_at("name");
    }
  }
  profile.spans = spans.size();
  for (const auto& [name, count] : instants) {
    profile.instants += count;
    profile.instant_counts.emplace_back(name, count);
  }

  // Self-time: per thread, nest spans with a containment stack. A span
  // is a direct child of the deepest still-open span that contains it;
  // its duration is charged to that parent's child time exactly once.
  std::map<long long, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < spans.size(); ++i) by_tid[spans[i].tid].push_back(i);
  constexpr double kEps = 1e-3;  // microseconds; timestamps carry 3 decimals
  double min_ts = 0.0, max_end = 0.0;
  bool have_span = false;
  for (auto& [tid, indices] : by_tid) {
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].ts != spans[b].ts) return spans[a].ts < spans[b].ts;
      return spans[a].dur > spans[b].dur;  // parent before same-start child
    });
    std::vector<std::size_t> stack;
    for (std::size_t i : indices) {
      SpanRec& s = spans[i];
      const double end = s.ts + s.dur;
      if (!have_span || s.ts < min_ts) min_ts = s.ts;
      if (!have_span || end > max_end) max_end = end;
      have_span = true;
      while (!stack.empty() &&
             spans[stack.back()].ts + spans[stack.back()].dur <= s.ts + kEps)
        stack.pop_back();
      if (!stack.empty() && end <= spans[stack.back()].ts + spans[stack.back()].dur + kEps) {
        spans[stack.back()].child += s.dur;
      } else {
        stack.clear();  // overlapping-but-not-nested never happens on one thread
        s.top_level = true;
      }
      stack.push_back(i);
    }
  }
  profile.start_us = have_span ? min_ts : 0.0;
  profile.span_us = have_span ? max_end - min_ts : 0.0;

  // Aggregates.
  std::map<std::string, ProfileEntry> names;
  std::map<std::string, ProfileEntry> categories;
  for (const SpanRec& s : spans) {
    const double self = std::max(0.0, s.dur - s.child);
    ProfileEntry& n = names[s.name];
    if (n.count == 0) {
      n.name = s.name;
      n.category = s.category;
    }
    ++n.count;
    n.total_us += s.dur;
    n.self_us += self;
    ProfileEntry& c = categories[s.category.empty() ? "(none)" : s.category];
    if (c.count == 0) c.name = s.category.empty() ? "(none)" : s.category;
    ++c.count;
    c.total_us += s.dur;
    c.self_us += self;
  }
  for (auto& [_, entry] : names) profile.by_name.push_back(std::move(entry));
  for (auto& [_, entry] : categories) profile.by_category.push_back(std::move(entry));
  std::sort(profile.by_name.begin(), profile.by_name.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) { return a.self_us > b.self_us; });
  std::sort(profile.by_category.begin(), profile.by_category.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) { return a.total_us > b.total_us; });

  // Top spans by duration.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t keep = std::min(top_n, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return spans[a].dur > spans[b].dur;
                    });
  for (std::size_t i = 0; i < keep; ++i) {
    const SpanRec& s = spans[order[i]];
    profile.top_spans.push_back({s.name, s.category, s.tid, s.ts, s.dur});
  }

  // Worker utilization: busy = union of top-level spans (children are
  // covered by their parents), bucketed into a text timeline. A span
  // too wide for a finite bucket width only counts toward busy time.
  const double width = profile.span_us / static_cast<double>(kTimelineWidth);
  const bool bucketed = width > 0.0 && std::isfinite(width);
  const auto bucket = [](double at) {
    return at >= static_cast<double>(kTimelineWidth - 1) ? kTimelineWidth - 1
           : at > 0.0                                    ? static_cast<std::size_t>(at)
                                                         : std::size_t{0};
  };
  for (const auto& [tid, indices] : by_tid) {
    WorkerProfile w;
    w.tid = tid;
    if (auto it = thread_names.find(tid); it != thread_names.end()) w.name = it->second;
    std::vector<double> buckets(kTimelineWidth, 0.0);
    for (std::size_t i : indices) {
      const SpanRec& s = spans[i];
      if (!s.top_level) continue;
      w.busy_us += s.dur;
      if (!bucketed) continue;
      const double lo = s.ts - profile.start_us;
      const double hi = lo + s.dur;
      for (std::size_t bkt = bucket(lo / width); bkt <= bucket(hi / width); ++bkt) {
        const double b0 = static_cast<double>(bkt) * width;
        const double overlap = std::min(hi, b0 + width) - std::max(lo, b0);
        if (overlap > 0.0) buckets[bkt] += overlap;
      }
    }
    w.utilization = profile.span_us > 0.0 ? w.busy_us / profile.span_us : 0.0;
    static constexpr const char kGlyphs[] = " .:=#";
    for (double busy : buckets) {
      const double frac = bucketed ? busy / width : 0.0;
      w.timeline += kGlyphs[frac >= 1.0  ? 4
                            : frac > 0.0 ? static_cast<std::size_t>(std::ceil(frac * 4.0 - 1e-9))
                                         : 0];
    }
    profile.workers.push_back(std::move(w));
  }
  return profile;
}

std::string TraceProfile::to_text() const {
  std::string out = fmt(
      "trace profile: %zu events (%zu spans, %zu instants, %zu dropped), "
      "%zu threads, %s profiled\n",
      events, spans, instants, dropped, workers.size(), format_us(span_us).c_str());

  out += "\nby category:\n";
  out += fmt("  %-24s %8s %12s %12s\n", "category", "count", "total", "self");
  for (const ProfileEntry& e : by_category)
    out += fmt("  %-24s %8zu %12s %12s\n", e.name.c_str(), e.count,
               format_us(e.total_us).c_str(), format_us(e.self_us).c_str());

  out += "\nby span name (self time, top 20):\n";
  out += fmt("  %-24s %8s %12s %12s  %s\n", "name", "count", "total", "self", "category");
  for (std::size_t i = 0; i < std::min<std::size_t>(by_name.size(), 20); ++i) {
    const ProfileEntry& e = by_name[i];
    out += fmt("  %-24s %8zu %12s %12s  %s\n", e.name.c_str(), e.count,
               format_us(e.total_us).c_str(), format_us(e.self_us).c_str(), e.category.c_str());
  }

  if (!top_spans.empty()) {
    out += "\nlongest spans:\n";
    for (const SpanInfo& s : top_spans)
      out += fmt("  %-24s %12s  tid %-6lld @ %s\n", s.name.c_str(), format_us(s.dur_us).c_str(),
                 s.tid, format_us(s.ts_us - start_us).c_str());
  }

  if (!instant_counts.empty()) {
    out += "\ninstants:";
    for (const auto& [name, count] : instant_counts) out += fmt(" %s x %zu,", name.c_str(), count);
    out.back() = '\n';
  }

  out += "\nworker utilization (one row per thread, '#' = busy):\n";
  for (const WorkerProfile& w : workers)
    out += fmt("  tid %-8lld %-12s %10s busy, %5.1f%%  |%s|\n", w.tid, w.name.c_str(),
               format_us(w.busy_us).c_str(), 100.0 * w.utilization, w.timeline.c_str());
  return out;
}

std::string TraceProfile::to_json() const {
  std::string out = "{\n  \"kind\": \"profile\",\n";
  out += "  \"events\": " + std::to_string(events) + ",\n";
  out += "  \"spans\": " + std::to_string(spans) + ",\n";
  out += "  \"instants\": " + std::to_string(instants) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped) + ",\n";
  out += "  \"threads\": " + std::to_string(workers.size()) + ",\n";
  out += "  \"span_us\": " + json::number_text(span_us) + ",\n";
  const auto entries = [&](const std::vector<ProfileEntry>& list) {
    std::string text = "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      text += i == 0 ? "\n    " : ",\n    ";
      text += "{ \"name\": " + json::escape(list[i].name);
      if (!list[i].category.empty())
        text += ", \"category\": " + json::escape(list[i].category);
      text += ", \"count\": " + std::to_string(list[i].count);
      text += ", \"total_us\": " + json::number_text(list[i].total_us);
      text += ", \"self_us\": " + json::number_text(list[i].self_us) + " }";
    }
    text += list.empty() ? "]" : "\n  ]";
    return text;
  };
  out += "  \"by_category\": " + entries(by_category) + ",\n";
  out += "  \"by_name\": " + entries(by_name) + ",\n";
  out += "  \"top_spans\": [";
  for (std::size_t i = 0; i < top_spans.size(); ++i) {
    const SpanInfo& s = top_spans[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"name\": " + json::escape(s.name);
    out += ", \"category\": " + json::escape(s.category);
    out += ", \"tid\": " + std::to_string(s.tid);
    out += ", \"ts_us\": " + json::number_text(s.ts_us);
    out += ", \"dur_us\": " + json::number_text(s.dur_us) + " }";
  }
  out += top_spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"instant_counts\": {";
  for (std::size_t i = 0; i < instant_counts.size(); ++i) {
    out += i == 0 ? " " : ", ";
    out += json::escape(instant_counts[i].first) + ": " +
           std::to_string(instant_counts[i].second);
  }
  out += " },\n  \"workers\": [";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerProfile& w = workers[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"tid\": " + std::to_string(w.tid);
    out += ", \"name\": " + json::escape(w.name);
    out += ", \"busy_us\": " + json::number_text(w.busy_us);
    out += ", \"utilization\": " + json::number_text(w.utilization);
    out += ", \"timeline\": " + json::escape(w.timeline) + " }";
  }
  out += workers.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

/// Everything diff_manifests needs from one side.
struct ManifestSide {
  std::string tool, title;
  double wall = 0.0;
  double hits = 0.0, misses = 0.0;
  double computed = 0.0;
  double issues = 0.0;
  bool has_robustness = false;  ///< Cells summary carried degraded/timed_out/retried.
  double degraded = 0.0, timed_out = 0.0, retried = 0.0;
  std::map<std::pair<std::size_t, std::size_t>, double> cells;  ///< NaN = no timing.
  bool any_telemetry = false;
  double iterations = 0.0, levels = 0.0;
  double max_drift = 0.0, max_gap = 0.0;

  double hit_rate() const noexcept {
    const double lookups = hits + misses;
    return lookups > 0.0 ? hits / lookups : 0.0;
  }
};

lrd::Expected<ManifestSide> read_manifest(const json::Value& doc, const char* which) {
  if (!doc.is_object() || doc.find("cell_times") == nullptr)
    return fail(lrd::ErrorCategory::kParse, "artifact is a run manifest",
                std::string("document ") + which +
                    " has no cell_times array (not a run manifest)");
  ManifestSide side;
  side.tool = doc.string_at("tool");
  side.title = doc.string_at("title");
  side.wall = doc.number_at("wall_seconds");
  if (const json::Value* cache = doc.find("cache")) {
    side.hits = cache->number_at("hits");
    side.misses = cache->number_at("misses");
  }
  if (const json::Value* cells = doc.find("cells")) {
    side.computed = cells->number_at("computed");
    if (cells->find_non_null("degraded") != nullptr) {
      side.has_robustness = true;
      side.degraded = cells->number_at("degraded");
      side.timed_out = cells->number_at("timed_out");
      side.retried = cells->number_at("retried");
    }
  }
  if (const json::Value* issues = doc.find("issues"); issues && issues->is_array())
    side.issues = static_cast<double>(issues->size());
  for (const json::Value& cell : doc.find("cell_times")->items()) {
    if (!cell.is_object()) continue;
    const json::Value* seconds = cell.find_non_null("seconds");
    side.cells[{cell.count_at("row"), cell.count_at("col")}] =
        seconds != nullptr && seconds->is_number() ? seconds->as_number() : std::nan("");
    const json::Value* telemetry = cell.find_non_null("telemetry");
    if (telemetry == nullptr) continue;
    const json::Value* levels = telemetry->find_non_null("levels");
    if (levels == nullptr || !levels->is_array()) continue;
    side.any_telemetry = true;
    side.levels += static_cast<double>(levels->size());
    for (const json::Value& level : levels->items()) {
      side.iterations += level.number_at("iterations");
      side.max_drift = std::max(side.max_drift, level.number_at("mass_drift"));
      side.max_gap = std::max(side.max_gap, level.number_at("occupancy_gap"));
    }
  }
  return side;
}

DiffScalar scalar(double a, double b, bool present = true) { return {a, b, present}; }

}  // namespace

lrd::Expected<ManifestDiff> diff_manifests(const json::Value& a, const json::Value& b) {
  auto side_a = read_manifest(a, "A");
  if (!side_a) return side_a.status();
  auto side_b = read_manifest(b, "B");
  if (!side_b) return side_b.status();
  const ManifestSide& ma = side_a.value();
  const ManifestSide& mb = side_b.value();

  ManifestDiff diff;
  diff.tool_a = ma.tool;
  diff.tool_b = mb.tool;
  diff.title_a = ma.title;
  diff.title_b = mb.title;
  diff.wall_seconds = scalar(ma.wall, mb.wall);
  diff.cache_hit_rate = scalar(ma.hit_rate(), mb.hit_rate());
  diff.computed_cells = scalar(ma.computed, mb.computed);
  diff.issues = scalar(ma.issues, mb.issues);
  diff.has_telemetry = ma.any_telemetry || mb.any_telemetry;
  diff.iterations = scalar(ma.iterations, mb.iterations, diff.has_telemetry);
  diff.levels = scalar(ma.levels, mb.levels, diff.has_telemetry);
  diff.max_mass_drift = scalar(ma.max_drift, mb.max_drift, diff.has_telemetry);
  diff.max_occupancy_gap = scalar(ma.max_gap, mb.max_gap, diff.has_telemetry);
  const bool robustness = ma.has_robustness || mb.has_robustness;
  diff.degraded_cells = scalar(ma.degraded, mb.degraded, robustness);
  diff.timed_out_cells = scalar(ma.timed_out, mb.timed_out, robustness);
  diff.retried_cells = scalar(ma.retried, mb.retried, robustness);

  for (const auto& [coord, seconds_a] : ma.cells) {
    auto it = mb.cells.find(coord);
    if (it == mb.cells.end()) {
      ++diff.only_a;
      continue;
    }
    ++diff.common_cells;
    const double seconds_b = it->second;
    if (std::isnan(seconds_a) || std::isnan(seconds_b)) continue;
    diff.cell_deltas.push_back({coord.first, coord.second, seconds_a, seconds_b});
  }
  for (const auto& [coord, _] : mb.cells)
    if (ma.cells.find(coord) == ma.cells.end()) ++diff.only_b;
  std::sort(diff.cell_deltas.begin(), diff.cell_deltas.end(),
            [](const CellDelta& x, const CellDelta& y) {
              return std::abs(x.delta()) > std::abs(y.delta());
            });
  return diff;
}

std::string ManifestDiff::to_text(std::size_t top_n) const {
  std::string out = fmt("manifest diff: %s \"%s\"  ->  %s \"%s\"\n", tool_a.c_str(),
                        title_a.c_str(), tool_b.c_str(), title_b.c_str());
  out += fmt("  wall time        %10s -> %-10s (%+.1f%%, %s)\n",
             format_seconds(wall_seconds.a).c_str(), format_seconds(wall_seconds.b).c_str(),
             100.0 * wall_seconds.relative(), worse_if_up(wall_seconds.delta()));
  out += fmt("  cache hit rate   %9.1f%% -> %.1f%% (%+.1f pp)\n", 100.0 * cache_hit_rate.a,
             100.0 * cache_hit_rate.b, 100.0 * cache_hit_rate.delta());
  out += fmt("  computed cells   %10.0f -> %-10.0f\n", computed_cells.a, computed_cells.b);
  out += fmt("  cells            %zu common, %zu only in A, %zu only in B\n", common_cells,
             only_a, only_b);
  const auto count_row = [&out](const char* label, const DiffScalar& s) {
    out += fmt("%s%10.0f -> %-10.0f (%s)\n", label, s.a, s.b, worse_if_up(s.delta()));
  };
  count_row("  issues           ", issues);
  if (degraded_cells.present) {
    count_row("  degraded cells   ", degraded_cells);
    count_row("  timed-out cells  ", timed_out_cells);
    count_row("  retried cells    ", retried_cells);
  }
  if (has_telemetry) {
    out += "  solver telemetry (summed/worst over telemetry-carrying cells):\n";
    out += fmt("    iterations     %10.0f -> %-10.0f (%+.1f%%, %s)\n", iterations.a,
               iterations.b, 100.0 * iterations.relative(), worse_if_up(iterations.delta()));
    count_row("    levels         ", levels);
    out += fmt("    max mass drift %10.3g -> %-10.3g (%s)\n", max_mass_drift.a, max_mass_drift.b,
               worse_if_up(max_mass_drift.delta()));
    out += fmt("    max occ. gap   %10.3g -> %-10.3g (%s)\n", max_occupancy_gap.a,
               max_occupancy_gap.b, worse_if_up(max_occupancy_gap.delta()));
  } else {
    out += "  solver telemetry: absent on both sides\n";
  }
  if (!cell_deltas.empty()) {
    out += "  largest per-cell timing deltas (B - A):\n";
    for (std::size_t i = 0; i < std::min(top_n, cell_deltas.size()); ++i) {
      const CellDelta& c = cell_deltas[i];
      out += fmt("    (%3zu,%3zu)  %10s -> %-10s (%+.3g s, %s)\n", c.row, c.col,
                 format_seconds(c.a_seconds).c_str(), format_seconds(c.b_seconds).c_str(),
                 c.delta(), worse_if_up(c.delta()));
    }
  }
  return out;
}

namespace {

std::string scalar_json(const DiffScalar& s) {
  return "{ \"a\": " + json::number_text(s.a) + ", \"b\": " + json::number_text(s.b) +
         ", \"delta\": " + json::number_text(s.delta()) + " }";
}

}  // namespace

std::string ManifestDiff::to_json() const {
  std::string out = "{\n  \"kind\": \"diff-manifest\",\n";
  out += "  \"tool_a\": " + json::escape(tool_a) + ",\n";
  out += "  \"tool_b\": " + json::escape(tool_b) + ",\n";
  out += "  \"title_a\": " + json::escape(title_a) + ",\n";
  out += "  \"title_b\": " + json::escape(title_b) + ",\n";
  out += "  \"wall_seconds\": " + scalar_json(wall_seconds) + ",\n";
  out += "  \"cache_hit_rate\": " + scalar_json(cache_hit_rate) + ",\n";
  out += "  \"computed_cells\": " + scalar_json(computed_cells) + ",\n";
  out += "  \"issues\": " + scalar_json(issues) + ",\n";
  if (degraded_cells.present) {
    out += "  \"degraded_cells\": " + scalar_json(degraded_cells) + ",\n";
    out += "  \"timed_out_cells\": " + scalar_json(timed_out_cells) + ",\n";
    out += "  \"retried_cells\": " + scalar_json(retried_cells) + ",\n";
  }
  out += "  \"cells\": { \"common\": " + std::to_string(common_cells) +
         ", \"only_a\": " + std::to_string(only_a) +
         ", \"only_b\": " + std::to_string(only_b) + " },\n";
  out += std::string("  \"has_telemetry\": ") + (has_telemetry ? "true" : "false") + ",\n";
  if (has_telemetry) {
    out += "  \"telemetry\": {\n";
    out += "    \"iterations\": " + scalar_json(iterations) + ",\n";
    out += "    \"levels\": " + scalar_json(levels) + ",\n";
    out += "    \"max_mass_drift\": " + scalar_json(max_mass_drift) + ",\n";
    out += "    \"max_occupancy_gap\": " + scalar_json(max_occupancy_gap) + "\n  },\n";
  }
  out += "  \"cell_deltas\": [";
  for (std::size_t i = 0; i < cell_deltas.size(); ++i) {
    const CellDelta& c = cell_deltas[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"row\": " + std::to_string(c.row) + ", \"col\": " + std::to_string(c.col);
    out += ", \"a_seconds\": " + json::number_text(c.a_seconds);
    out += ", \"b_seconds\": " + json::number_text(c.b_seconds);
    out += ", \"delta\": " + json::number_text(c.delta()) + " }";
  }
  out += cell_deltas.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

lrd::Expected<MetricsDiff> diff_metrics(const json::Value& a, const json::Value& b) {
  for (const auto& [doc, which] : {std::pair{&a, "A"}, std::pair{&b, "B"}})
    if (!doc->is_object())
      return fail(lrd::ErrorCategory::kParse, "artifact is a metrics snapshot",
                  std::string("document ") + which + " is not a metrics snapshot object");

  MetricsDiff diff;
  auto append_series = [&diff](const std::string& name, const std::string& type,
                               const json::Value* in_a, const json::Value* in_b) {
    // Histograms flatten into comparable numeric series; counters and
    // gauges contribute their single value.
    const auto add = [&](const std::string& series, const char* key) {
      MetricDelta d;
      d.name = series;
      d.type = type;
      if (in_a != nullptr)
        if (const json::Value* v = in_a->find_non_null(key); v && v->is_number()) {
          d.a = v->as_number();
          d.in_a = true;
        }
      if (in_b != nullptr)
        if (const json::Value* v = in_b->find_non_null(key); v && v->is_number()) {
          d.b = v->as_number();
          d.in_b = true;
        }
      if (d.in_a || d.in_b) diff.metrics.push_back(std::move(d));
    };
    if (type == "histogram") {
      for (const char* key : {"count", "sum", "p50", "p90", "p99"})
        add(name + "." + key, key);
    } else {
      add(name, "value");
    }
  };

  for (const auto& [name, entry] : a.members()) {
    if (!entry.is_object()) continue;
    const json::Value* other = b.find(name);
    if (other == nullptr) ++diff.only_a;
    append_series(name, entry.string_at("type"), &entry,
                  other != nullptr && other->is_object() ? other : nullptr);
  }
  for (const auto& [name, entry] : b.members()) {
    if (!entry.is_object() || a.find(name) != nullptr) continue;
    ++diff.only_b;
    append_series(name, entry.string_at("type"), nullptr, &entry);
  }
  return diff;
}

std::string MetricsDiff::to_text() const {
  std::string out = "metrics diff (B - A):\n";
  std::size_t unchanged = 0;
  for (const MetricDelta& m : metrics) {
    if (m.in_a && m.in_b && m.delta() == 0.0) {
      ++unchanged;
      continue;
    }
    const char* mark = !m.in_a ? "(new)" : !m.in_b ? "(gone)" : m.delta() > 0 ? "^" : "v";
    out += fmt("  %-44s %12.6g -> %-12.6g %+12.6g %s\n", m.name.c_str(), m.a, m.b, m.delta(),
               mark);
  }
  out += fmt("  %zu series unchanged; %zu metrics only in A, %zu only in B\n", unchanged, only_a,
             only_b);
  return out;
}

std::string MetricsDiff::to_json() const {
  std::string out = "{\n  \"kind\": \"diff-metrics\",\n";
  out += "  \"only_a\": " + std::to_string(only_a) + ",\n";
  out += "  \"only_b\": " + std::to_string(only_b) + ",\n";
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricDelta& m = metrics[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"name\": " + json::escape(m.name);
    out += ", \"type\": " + json::escape(m.type);
    out += ", \"a\": " + (m.in_a ? json::number_text(m.a) : "null");
    out += ", \"b\": " + (m.in_b ? json::number_text(m.b) : "null");
    out += ", \"delta\": " + (m.in_a && m.in_b ? json::number_text(m.delta()) : "null");
    out += " }";
  }
  out += metrics.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

lrd::Expected<SelfTimeTable> profile_selftime(const std::string& jsonl) {
  SelfTimeTable table;
  const std::vector<PR> records = profile_records(jsonl, &table.malformed);
  if (records.empty())
    return fail(lrd::ErrorCategory::kParse, "input lines carry schema lrd-profile-v1",
                "no parsable profile records");
  std::map<std::string, SelfTimeEntry> frames;
  std::vector<unsigned long long> queries;
  for (const PR& r : records) {
    table.samples += r.count;
    if (table.interval_us == 0.0) table.interval_us = r.interval_us;
    if (r.query_id != 0 && std::find(queries.begin(), queries.end(), r.query_id) == queries.end())
      queries.push_back(r.query_id);

    // Split the folded stack (root;...;leaf): the leaf frame gets the
    // self time; every distinct frame on the stack gets the total once,
    // so recursion does not double-count a stack's samples.
    std::vector<std::string> parts;
    for (std::size_t start = 0; start <= r.stack.size();) {
      const std::size_t semi = std::min(r.stack.find(';', start), r.stack.size());
      if (semi > start) parts.push_back(r.stack.substr(start, semi - start));
      start = semi + 1;
    }
    if (parts.empty()) continue;
    ++table.stacks;
    for (auto it = parts.begin(); it != parts.end(); ++it) {
      if (std::find(parts.begin(), it, *it) != it) continue;  // recursion: counted already
      SelfTimeEntry& e = frames[*it];
      e.frame = *it;
      e.total += r.count;
    }
    frames[parts.back()].self += r.count;
  }
  table.queries = queries.size();
  table.entries.reserve(frames.size());
  for (auto& [frame, entry] : frames) table.entries.push_back(std::move(entry));
  std::stable_sort(table.entries.begin(), table.entries.end(),
                   [](const SelfTimeEntry& a, const SelfTimeEntry& b) {
                     return a.self != b.self ? a.self > b.self : a.total > b.total;
                   });
  return table;
}

std::string SelfTimeTable::to_text(std::size_t top_n) const {
  std::string out = fmt("cpu self-time: %llu samples over %zu stacks (%zu frames, %zu queries)",
                        samples, stacks, entries.size(), queries);
  if (interval_us > 0.0) out += fmt(", %.0f us interval", interval_us);
  if (malformed != 0) out += fmt(", %zu malformed lines skipped", malformed);
  out += "\n\n";
  out += fmt("  %8s %6s  %8s %6s  %s\n", "self", "", "total", "", "frame");
  const double n = samples == 0 ? 1.0 : static_cast<double>(samples);
  const std::size_t shown = top_n == 0 ? entries.size() : std::min(top_n, entries.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const SelfTimeEntry& e = entries[i];
    out += fmt("  %8llu %5.1f%%  %8llu %5.1f%%  %s\n", e.self,
               100.0 * static_cast<double>(e.self) / n, e.total,
               100.0 * static_cast<double>(e.total) / n, e.frame.c_str());
  }
  if (entries.size() > shown) out += fmt("  ... and %zu more frames\n", entries.size() - shown);
  return out;
}

std::string SelfTimeTable::to_json(std::size_t top_n) const {
  std::string out = "{\n  \"kind\": \"selftime\",\n";
  out += "  \"samples\": " + std::to_string(samples) + ",\n";
  out += "  \"stacks\": " + std::to_string(stacks) + ",\n";
  out += "  \"queries\": " + std::to_string(queries) + ",\n";
  out += "  \"interval_us\": " + json::number_text(interval_us) + ",\n";
  out += "  \"frames\": [";
  const std::size_t shown = top_n == 0 ? entries.size() : std::min(top_n, entries.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const SelfTimeEntry& e = entries[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"frame\": " + json::escape(e.frame);
    out += ", \"self\": " + std::to_string(e.self);
    out += ", \"total\": " + std::to_string(e.total) + " }";
  }
  out += shown == 0 ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace doctor {

namespace {

bool is_incident_kind(const std::string& k) {
  return k == "crash_signal" || k == "failpoint" || k == "deadline_exceeded" ||
         k == "query_shed";
}

bool is_finish_kind(const std::string& k) {
  return k == "query_finished" || k == "solve_finish";
}

std::string event_detail(const FE& e) {
  if (e.kind == "crash_signal") return fmt("signal %llu (%s)", e.a, e.tag.c_str());
  if (e.kind == "failpoint") return fmt("site %s (mode %llu)", e.tag.c_str(), e.a);
  if (e.kind == "query_finished")
    return fmt("id=%s code=%llu wall=%.3fms queue=%.3fms", e.tag.c_str(), e.a, e.x,
               static_cast<double>(e.b) / 1e3);
  if (e.kind == "query_admitted" || e.kind == "query_shed")
    return fmt("id=%s depth=%llu", e.tag.c_str(), e.a);
  if (e.kind == "query_started") return fmt("id=%s", e.tag.c_str());
  if (e.kind == "solve_level") return fmt("level %llu, %llu bins", e.a, e.b);
  if (e.kind == "solve_finish") return fmt("%llu iterations, %llu bins, %.3fms", e.a, e.b, e.x);
  if (e.kind == "deadline_exceeded") return fmt("deadline %.0fms (%s)", e.x, e.tag.c_str());
  if (e.kind == "retry") return fmt("attempt %llu, max_bins %llu", e.a, e.b);
  if (e.kind == "cache_hit") return fmt("key %llu (%s)", e.a, e.b != 0 ? "disk" : "memory");
  if (e.kind == "cache_miss" || e.kind == "cache_store" || e.kind == "cache_evict")
    return fmt("key %llu", e.a);
  return e.tag;
}

/// Everything the two renderers (text / JSON) need, computed once.
struct BundleSummary {
  std::string dir, tool, reason, git, build_type, compiler;
  bool crash = false;
  long long signal = -1;
  unsigned long long pid = 0;
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
  std::vector<unsigned long long> tids;
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
      s.max_depth = std::max(s.max_depth, e.a);
      s.depth_sum += static_cast<double>(e.a);
    } else if (e.kind == "query_shed") {
      ++s.shed;
      s.shed_max_depth = std::max(s.shed_max_depth, e.a);
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
    s.lat_count = h->count_at("count");
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
               e.tid, event_detail(e).c_str());
    for (std::size_t k = i > kTimelineEvents ? i - kTimelineEvents : 0; k < i; ++k) {
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
    out += fmt("  %10.3f %10.3f  %4llu  %s\n", e.x, static_cast<double>(e.b) / 1e3, e.a,
               e.tag.empty() ? "-" : e.tag.c_str());
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
    const std::size_t from = i > kTimelineEvents ? i - kTimelineEvents : 0;
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
    return fail(lrd::ErrorCategory::kParse, "bundle.json declares schema lrd-bundle-v1",
                "not a diagnostics bundle: " + dir);

  BundleSummary s;
  s.dir = dir;
  s.tool = m.string_at("tool", "?");
  s.reason = m.string_at("reason", "?");
  s.crash = m.find("crash") != nullptr && m.find("crash")->as_bool();
  s.signal = m.count_at<long long>("signal", -1);
  s.pid = m.count_at("pid");
  s.flight_dropped = m.count_at("flight_dropped");
  s.profiler_dropped = m.count_at("profiler_dropped");

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
    return fail(lrd::ErrorCategory::kParse, "access log lines carry schema lrd-access-v1",
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
    return fail(lrd::ErrorCategory::kInvalidConfig, "socket path fits sockaddr_un",
                "socket path invalid: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (fd >= 0) ::close(fd);
    return fail(lrd::ErrorCategory::kIo, "triage input is readable",
                std::string("cannot connect to daemon: ") + std::strerror(errno) + ": " +
                    socket_path);
  }
  const std::string query = "{\"op\": \"dump\", \"id\": \"doctor\"}\n";
  for (std::size_t off = 0; off < query.size();) {
    const ssize_t n = ::send(fd, query.data() + off, query.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why = n < 0 ? std::strerror(errno) : "connection closed";
      ::close(fd);
      return fail(lrd::ErrorCategory::kIo, "daemon socket accepts the dump query",
                  "cannot send the dump query: " + why + ": " + socket_path);
    }
    off += static_cast<std::size_t>(n);
  }
  // The dump op queues behind admitted solves, so the answer may take a
  // while; like `lrdq_serve --connect`, each wait for more bytes is
  // bounded all the same, since a wedged daemon must not hang the tool.
  const int wait_ms = static_cast<int>(
      std::min<std::size_t>(opt.timeout_ms, std::numeric_limits<int>::max()));
  std::string buf;
  char chunk[4096];
  bool timed_out = false;
  while (buf.find('\n') == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    timed_out = ready == 0;
    if (ready <= 0) break;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto nl = buf.find('\n');
  if (nl == std::string::npos)
    return fail(lrd::ErrorCategory::kIo, "triage input is readable",
                (timed_out ? "no response line from daemon within " +
                                 std::to_string(opt.timeout_ms) + " ms (--timeout-ms): "
                           : std::string("no response line from daemon: ")) +
                    socket_path);
  auto parsed = json::parse(buf.substr(0, nl));
  if (!parsed || !parsed.value().is_object())
    return fail(lrd::ErrorCategory::kParse, "dump response is a JSON object",
                "malformed response from " + socket_path);
  const json::Value* b = parsed.value().find("bundle");
  if (b == nullptr || !b->is_string()) {
    std::string why = "daemon did not report a bundle path";
    if (const json::Value* d = parsed.value().find("diagnostic");
        d != nullptr && d->is_string())
      why += ": " + d->as_string();
    return fail(lrd::ErrorCategory::kIo, "daemon was started with --dump-dir", why);
  }
  return triage_bundle(b->as_string(), opt);
}

lrd::Expected<std::string> triage_query(std::uint64_t query_id, const QuerySources& sources,
                                        const Options& opt) {
  if (sources.access_log.empty() && sources.bundle_dir.empty() && sources.profile.empty() &&
      sources.trace.empty())
    return fail(lrd::ErrorCategory::kInvalidConfig, "at least one artifact source is given",
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
    auto loaded = load_flight(sources.bundle_dir + "/flight.jsonl", nullptr);
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
    auto text = json::read_file(path);
    if (!text) {
      // The bundle's profile.jsonl is best-effort (absent when the
      // crashed process had no profiler armed); an explicit --profile
      // that cannot be read is the operator's mistake and stays fatal.
      if (path == sources.profile) return text.diagnostics();
      continue;
    }
    std::vector<PR> loaded = profile_records(text.value(), nullptr);
    profile_total += loaded.size();
    for (PR& r : loaded)
      if (r.query_id == query_id) {
        samples += r.count;
        profile.push_back(std::move(r));
      }
  }
  std::stable_sort(profile.begin(), profile.end(),
                   [](const PR& a, const PR& b) { return a.count > b.count; });

  json::Value trace;  // owns what the spans' raw pointers see
  std::vector<TE> spans;
  std::size_t span_total = 0;
  if (!sources.trace.empty()) {
    auto parsed = json::parse_file(sources.trace);
    if (!parsed) return parsed.diagnostics();
    trace = std::move(parsed).take();
    auto events = trace_events(trace);
    if (!events) return events.diagnostics();
    for (TE& e : events.value()) {
      if (e.ph != "X" && e.ph != "i") continue;
      ++span_total;
      const json::Value* a = e.raw->find("args");
      if (a == nullptr || !a->is_object() || a->count_at("qid") != query_id) continue;
      e.name = e.raw->string_at("name", "?");
      spans.push_back(std::move(e));
    }
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TE& a, const TE& b) { return a.ts < b.ts; });
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
      const TE& s = spans[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"name\": " + json::escape(s.name);
      out += ", \"ph\": " + json::escape(s.ph);
      out += ", \"ts_us\": " + json::number_text(s.ts);
      out += ", \"dur_us\": " + json::number_text(s.dur);
      out += ", \"tid\": " + std::to_string(s.tid) + " }";
    }
    out += " ]";
    out += ",\n  \"profile\": { \"samples\": " + std::to_string(samples);
    out += ", \"stacks\": [";
    for (std::size_t i = 0; i < profile.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{ \"stack\": " + json::escape(profile[i].stack);
      out += ", \"count\": " + std::to_string(profile[i].count) + " }";
    }
    out += " ] }";
    out += ",\n  \"totals\": { \"access_records\": " + std::to_string(access_total);
    out += ", \"flight_events\": " + std::to_string(flight_total);
    out += ", \"trace_events\": " + std::to_string(span_total);
    out += ", \"profile_records\": " + std::to_string(profile_total) + " }\n}\n";
    return out;
  }

  std::string out = fmt("lrdq_doctor triage — query %llu (0x%llx)\n",
                        static_cast<unsigned long long>(query_id),
                        static_cast<unsigned long long>(query_id));
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
                 event_detail(e).c_str(), e.tid);
    }
    if (flight.size() > shown)
      out += fmt("  ... and %zu more events\n", flight.size() - shown);
  }

  if (!sources.trace.empty()) {
    out += fmt("\n== spans (%zu of %zu trace events) ==\n", spans.size(), span_total);
    if (spans.empty()) out += "  none carry this query_id\n";
    for (const TE& s : spans) {
      if (s.ph == "X")
        out += fmt("  t=%10.3f ms  %-24s %.3f ms  (tid %lld)\n", s.ts / 1e3, s.name.c_str(),
                   s.dur / 1e3, s.tid);
      else
        out += fmt("  t=%10.3f ms  %-24s instant  (tid %lld)\n", s.ts / 1e3, s.name.c_str(),
                   s.tid);
    }
  }

  out += fmt("\n== profile (%zu stacks, %llu samples", profile.size(), samples);
  if (profile_total != 0) out += fmt(" — %zu records scanned", profile_total);
  out += ") ==\n";
  if (profile.empty()) out += "  no samples carry this query_id\n";
  const std::size_t pshown = std::min(profile.size(), opt.top);
  for (std::size_t i = 0; i < pshown; ++i)
    out += fmt("  %6llu  %s\n", profile[i].count, profile[i].stack.c_str());
  if (profile.size() > pshown)
    out += fmt("  ... and %zu more stacks\n", profile.size() - pshown);
  return out;
}

}  // namespace doctor
}  // namespace lrd::obs
