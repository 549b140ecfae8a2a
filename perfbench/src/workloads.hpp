// The benchmark's three workloads (see perfbench/README.md for why each
// exists and which layer metric should move which end-to-end metric).
// Every workload reports the same bounded end-to-end metric names,
// defined per workload:
//
//   metric         sweep_cold              solve_tight              serve_mixed
//   setup_s        model build + warm-up   cell list + warm-up      daemon spawn, ping, priming
//   cpu_ms_per_op  own CPU per surface     child CPU per process    daemon CPU per query
//   peak_rss_mb    bench process           largest lrdq_solve       daemon
//
// Wall-clock latencies (surface_s, solve_p50_s, hit_p50_us, ...) are
// report-only: on a host with CPU steal they swing far more between
// identical runs than any useful regression bound.
#pragma once

#include "common.hpp"

namespace lrd::perfbench {

Outcome run_sweep_cold(const Options& opt);
Outcome run_solve_tight(const Options& opt);
Outcome run_serve_mixed(const Options& opt);

/// Online CPUs (the executor thread count of sweep_cold).
std::size_t cpu_count();

}  // namespace lrd::perfbench
