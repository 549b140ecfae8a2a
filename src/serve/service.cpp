#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "core/correlation_horizon.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "dist/marginal.hpp"
#include "obs/bundle.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lrd::serve {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// One solve outcome the service layers on: either a cache hit (estimate
/// only) or a full solver result.
struct CellAnswer {
  double estimate = 0.0;
  bool from_cache = false;
  CacheTier tier = CacheTier::kNone;
  std::uint64_t key = 0;
  queueing::SolverResult result;  // meaningful only when !from_cache
};

/// p50/p90/p99 of a registry histogram, reported in milliseconds for the
/// stats control op; "null" quantiles when no sample was recorded yet
/// (JSON has no NaN).
std::string quantiles_ms_json(const obs::Histogram& h) {
  const auto q = [&](double p) -> std::string {
    const double v = h.quantile(p) * 1e3;
    return std::isnan(v) ? "null" : obs::json::number_text(v);
  };
  return "{ \"count\": " + std::to_string(h.count()) + ", \"p50_ms\": " + q(0.5) +
         ", \"p90_ms\": " + q(0.9) + ", \"p99_ms\": " + q(0.99) + " }";
}

}  // namespace

QueryService::QueryService(runtime::SolverCache* cache, const ServiceConfig& cfg)
    : cache_(cache), cfg_(cfg) {}

Response QueryService::execute_line(std::string_view line,
                                    const runtime::CancellationToken* cancellation) const {
  auto parsed = parse_query(line);
  if (!parsed) {
    // Echo the id even for a rejected query (when the line is at least
    // valid JSON), so a pipelined client can match the error response.
    Response r = error_response(peek_id(line), parsed.diagnostics());
    r.query_id = obs::current_query_id();
    return r;
  }
  return execute(parsed.value(), cancellation);
}

Response QueryService::execute(const Query& q,
                               const runtime::CancellationToken* cancellation) const {
  const Clock::time_point start = Clock::now();
  Response r;
  r.id = q.id;
  switch (q.op) {
    case QueryOp::kPing: {
      r.op = "ping";
      r.extra.emplace_back("salt", obs::json::escape(runtime::kCacheVersionSalt));
      break;
    }
    case QueryOp::kStats: {
      r.op = "stats";
      if (cache_) {
        const runtime::CacheStats s = cache_->stats();
        std::string cache_json = "{ \"hits\": " + std::to_string(s.hits);
        cache_json += ", \"misses\": " + std::to_string(s.misses);
        cache_json += ", \"stores\": " + std::to_string(s.stores);
        cache_json += ", \"loaded\": " + std::to_string(s.loaded);
        cache_json += ", \"evictions\": " + std::to_string(s.evictions);
        cache_json += ", \"disk_hits\": " + std::to_string(s.disk_hits);
        cache_json += ", \"stale\": " + std::to_string(s.stale);
        cache_json += ", \"invalidations\": " + std::to_string(s.invalidations);
        cache_json += ", \"resident\": " + std::to_string(cache_->size()) + " }";
        r.extra.emplace_back("cache", std::move(cache_json));
      } else {
        r.extra.emplace_back("cache", "null");
      }
      if constexpr (obs::kObsEnabled) {
        auto& reg = obs::Registry::global();
        r.extra.emplace_back(
            "latency", quantiles_ms_json(reg.histogram(
                           "lrd_serve_query_seconds",
                           "Admission-to-response latency of served queries")));
        r.extra.emplace_back(
            "queue_wait", quantiles_ms_json(reg.histogram(
                              "lrd_serve_queue_wait_seconds",
                              "Admission-to-worker-pickup wait of served queries")));
      }
      break;
    }
    case QueryOp::kInvalidate: {
      r.op = "invalidate";
      const bool clean = cache_ ? cache_->invalidate() : true;
      r.extra.emplace_back("disk_rewritten", clean ? "true" : "false");
      if (!clean) {
        // Memory tier is empty either way; a failed disk rewrite means
        // stale records could resurface on the NEXT start, so say so.
        r.status = QueryStatus::kError;
        r.error_category = lrd::ErrorCategory::kIo;
        r.diagnostic = "memory tier cleared but the disk tier rewrite failed";
      }
      break;
    }
    case QueryOp::kDump: {
      r.op = "dump";
      if (!obs::bundle::configured()) {
        r.status = QueryStatus::kError;
        r.error_category = lrd::ErrorCategory::kInvalidConfig;
        r.diagnostic = "diagnostics bundles are not configured (start with --dump-dir)";
      } else if (const std::string dir = obs::bundle::dump("control_op"); dir.empty()) {
        r.status = QueryStatus::kError;
        r.error_category = lrd::ErrorCategory::kIo;
        r.diagnostic = "bundle dump failed (dump directory not writable?)";
      } else {
        r.extra.emplace_back("bundle", obs::json::escape(dir));
      }
      break;
    }
    case QueryOp::kSolve:
      r = solve_query(q, cancellation);
      break;
  }
  r.wall_ms = elapsed_ms(start);
  // Echo the correlation id minted at admission (or by --once's
  // per-line scope) so clients can triage their own requests.
  r.query_id = obs::current_query_id();
  return r;
}

Response QueryService::solve_query(const Query& q,
                                   const runtime::CancellationToken* cancellation) const {
  const Clock::time_point start = Clock::now();
  obs::Span span("serve.solve", "serve");

  // Effective deadline: the query's own, else the service default, both
  // clamped by max_deadline_ms so one client cannot monopolize a worker.
  std::size_t deadline_ms = q.deadline_ms != 0 ? q.deadline_ms : cfg_.default_deadline_ms;
  if (cfg_.max_deadline_ms != 0 && (deadline_ms == 0 || deadline_ms > cfg_.max_deadline_ms))
    deadline_ms = cfg_.max_deadline_ms;

  Response r;
  r.id = q.id;
  try {
    const dist::Marginal marginal(q.rates, q.probs);
    core::ModelConfig mc;
    mc.hurst = q.hurst;
    mc.mean_epoch = q.mean_epoch;
    mc.cutoff = q.cutoff;
    mc.utilization = q.utilization;
    mc.normalized_buffer = q.normalized_buffer;

    queueing::SolverConfig scfg;
    scfg.target_relative_gap = q.target_relative_gap;
    scfg.max_bins = q.max_bins;
    scfg.deadline_ms = deadline_ms;
    scfg.cancellation = cancellation;

    // Budget left for a follow-up probe solve; zero-or-less means the
    // query's deadline has already elapsed.
    const auto remaining_ms = [&]() -> std::optional<std::size_t> {
      if (deadline_ms == 0) return std::nullopt;  // unbounded
      const double left = static_cast<double>(deadline_ms) - elapsed_ms(start);
      return left > 1.0 ? static_cast<std::size_t>(left) : std::size_t{0};
    };

    // One cell solve through the cache. Every probe of a required-buffer
    // search goes through here too, so probes share the daemon-wide cache
    // exactly like sweep cells.
    const auto solve_cell = [&](const core::ModelConfig& cell_mc) -> CellAnswer {
      CellAnswer a;
      const core::FluidModel model(marginal, cell_mc);
      queueing::SolverConfig cell_scfg = scfg;
      if (const auto left = remaining_ms()) cell_scfg.deadline_ms = std::max<std::size_t>(*left, 1);
      a.key = core::model_cell_key(marginal, cell_mc, cell_scfg);
      if (q.use_cache && cache_ != nullptr) {
        bool from_disk = false;
        if (const auto hit = cache_->lookup(a.key, &from_disk)) {
          a.estimate = *hit;
          a.from_cache = true;
          a.tier = from_disk ? CacheTier::kDisk : CacheTier::kMemory;
          return a;
        }
      }
      const Clock::time_point t0 = Clock::now();
      a.result = model.solve(cell_scfg);
      a.estimate = a.result.loss_estimate();
      // Only converged results enter the cache (a wide bracket is not the
      // cell's answer); the cost is the solve's wall seconds so eviction
      // keeps expensive-to-recompute cells resident longer.
      if (a.result.converged && q.use_cache && cache_ != nullptr)
        cache_->store(a.key, a.estimate, elapsed_ms(t0) / 1e3);
      return a;
    };

    const core::FluidModel model(marginal, mc);
    const CellAnswer main = solve_cell(mc);

    r.has_solve = true;
    r.cache_hit = main.from_cache;
    r.cache_tier = main.tier;
    r.cache_key = main.key;
    r.cache_salt = std::string(runtime::kCacheVersionSalt);
    r.loss_estimate = main.estimate;
    if (main.from_cache) {
      // The cache persists the converged estimate, not the bracket.
      r.loss_lower = kNan;
      r.loss_upper = kNan;
      r.relative_gap = kNan;
      r.converged = true;
      r.stop = "cached";
    } else {
      const queueing::SolverResult& res = main.result;
      r.loss_lower = res.loss.lower;
      r.loss_upper = res.loss.upper;
      r.relative_gap = res.loss.relative_gap();
      r.converged = res.converged;
      r.stop = queueing::solver_stop_name(res.stop);
      r.iterations = res.iterations;
      r.levels = res.levels;
      r.bins = res.final_bins;
      if (res.converged) {
        r.status = QueryStatus::kOk;
      } else if (res.stop == queueing::SolverStop::kDeadlineExceeded) {
        r.status = QueryStatus::kDeadlineExceeded;
        r.diagnostic = res.status.describe();
      } else if (res.stop == queueing::SolverStop::kCancelled) {
        r.status = QueryStatus::kCancelled;
        r.diagnostic = res.status.describe();
      } else if (res.status.is_ok()) {
        r.status = QueryStatus::kNotConverged;
      } else {
        r.status = QueryStatus::kError;
        r.error_category = res.status.category();
        r.diagnostic = res.status.describe();
      }
    }

    if (!std::isinf(model.epochs()->variance())) {
      r.correlation_horizon =
          core::correlation_horizon(marginal, *model.epochs(), model.buffer());
      r.has_horizon = true;
    }

    // Required-buffer search: smallest normalized buffer whose loss
    // estimate meets the target, by doubling/halving to bracket and then
    // bisecting in b. All probes share this query's deadline.
    if (q.target_loss && r.status == QueryStatus::kOk) {
      const double target = *q.target_loss;
      std::size_t probes = 0;
      bool timed_out = false;
      // Smallest buffer seen meeting the target / largest seen missing it.
      double ok_b = kNan, ok_loss = 0.0;
      double bad_b = kNan;

      const auto probe = [&](double b) -> std::optional<double> {
        if (probes >= cfg_.max_required_buffer_probes) return std::nullopt;
        if (const auto left = remaining_ms(); left && *left == 0) {
          timed_out = true;
          return std::nullopt;
        }
        ++probes;
        core::ModelConfig probe_mc = mc;
        probe_mc.normalized_buffer = b;
        const CellAnswer a = solve_cell(probe_mc);
        if (!a.from_cache && !a.result.converged) {
          if (a.result.stop == queueing::SolverStop::kDeadlineExceeded ||
              a.result.stop == queueing::SolverStop::kCancelled)
            timed_out = true;
          return std::nullopt;  // a wide bracket cannot order b against the target
        }
        if (a.estimate <= target) {
          if (std::isnan(ok_b) || b < ok_b) { ok_b = b; ok_loss = a.estimate; }
        } else if (std::isnan(bad_b) || b > bad_b) {
          bad_b = b;
        }
        return a.estimate;
      };

      // Seed from the query's own cell, then expand geometrically until
      // both sides of the target are in hand.
      if (main.estimate <= target) { ok_b = mc.normalized_buffer; ok_loss = main.estimate; }
      else bad_b = mc.normalized_buffer;
      double b = mc.normalized_buffer;
      while (std::isnan(ok_b) && b < 1e6) {
        b *= 2.0;
        if (!probe(b)) break;
      }
      b = mc.normalized_buffer;
      while (std::isnan(bad_b) && !std::isnan(ok_b) && b > 1e-6) {
        b *= 0.5;
        if (!probe(b)) break;
      }
      // Bisect [bad_b, ok_b] down to the relative tolerance on b.
      while (!std::isnan(ok_b) && !std::isnan(bad_b) &&
             (ok_b - bad_b) > cfg_.required_buffer_tolerance * ok_b) {
        if (!probe(0.5 * (ok_b + bad_b))) break;
      }

      if (!std::isnan(ok_b)) {
        r.has_required_buffer = true;
        r.required_normalized_buffer = ok_b;
        r.required_buffer_mb = ok_b * model.service_rate();
        r.required_buffer_loss = ok_loss;
        if (!std::isnan(bad_b) && (ok_b - bad_b) > cfg_.required_buffer_tolerance * ok_b)
          r.diagnostic = "required-buffer search stopped before tolerance; "
                         "reported b is an upper bound";
      } else {
        r.diagnostic = "required-buffer search found no buffer meeting the target";
      }
      if (timed_out) {
        r.status = QueryStatus::kDeadlineExceeded;
        if (!r.diagnostic.empty()) r.diagnostic += "; ";
        r.diagnostic += "deadline_exceeded during required-buffer search";
      }
    }
  } catch (const std::exception& e) {
    lrd::Diagnostics d;
    if (const lrd::Diagnostics* known = lrd::diagnostics_of(e)) {
      d = *known;
    } else {
      d = lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "serve.service",
                                "query parameters form a valid model", e.what());
    }
    return error_response(q.id, d);
  }
  return r;
}

}  // namespace lrd::serve
