// Minimal data parallelism for the experiment sweeps.
//
// The figure surfaces solve dozens of independent queue models whose
// per-cell cost is heavy-tailed, so the indices are claimed one at a time
// from a shared cursor by the process-wide executor (runtime::Executor)
// rather than split into static blocks; this header stays the stable,
// dependency-light entry point.
#pragma once

#include <cstddef>
#include <functional>

namespace lrd::numerics {

/// Invokes fn(i) for i in [0, n), distributing the indices over up to
/// `threads` worker threads (0 = hardware concurrency) of the process-wide
/// pool. fn must be safe to call concurrently for distinct
/// i. The first exception thrown by fn cancels all tasks not yet started
/// (running tasks finish) and is rethrown after the job winds down.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace lrd::numerics
