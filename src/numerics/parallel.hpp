// Minimal data parallelism for the experiment sweeps.
//
// The figure surfaces solve dozens of independent queue models whose
// per-cell cost is heavy-tailed, so the indices are scheduled by the
// shared work-stealing executor (runtime::Executor) rather than a static
// partition; this header stays the stable, dependency-light entry point.
#pragma once

#include <cstddef>
#include <functional>

namespace lrd::numerics {

/// Invokes fn(i) for i in [0, n), distributing the indices over up to
/// `threads` worker threads (0 = hardware concurrency) of the process-wide
/// work-stealing pool. fn must be safe to call concurrently for distinct
/// i. The first exception thrown by fn cancels all tasks not yet started
/// (running tasks finish) and is rethrown after the job winds down.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace lrd::numerics
