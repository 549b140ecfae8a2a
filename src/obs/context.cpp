#include "obs/context.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>

namespace lrd::obs {

namespace {

/// Ids fit in 48 bits so they round-trip exactly through JSON numbers
/// (IEEE doubles are exact to 2^53).
constexpr QueryId kQueryIdMask = (QueryId{1} << 48) - 1;

std::atomic<std::uint64_t> g_mint_counter{0};

// Plain TLS integer: one load to read, safe from signal handlers.
thread_local QueryId t_query_id = 0;

}  // namespace

QueryId mint_query_id() noexcept {
  if constexpr (!kObsEnabled) return 0;
  // splitmix64 over (time, counter, pid): well-mixed low bits even
  // though the inputs barely differ between consecutive mints.
  std::uint64_t z = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  z += 0x9e3779b97f4a7c15ull *
       (g_mint_counter.fetch_add(1, std::memory_order_relaxed) + 1);
  z ^= static_cast<std::uint64_t>(::getpid()) << 32;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  z &= kQueryIdMask;
  return z == 0 ? 1 : z;
}

QueryId current_query_id() noexcept {
  if constexpr (!kObsEnabled) return 0;
  return t_query_id;
}

QueryScope::QueryScope(QueryId id) noexcept : id_(id) {
  if constexpr (!kObsEnabled) return;
  previous_ = t_query_id;
  t_query_id = id_;
}

QueryScope::~QueryScope() {
  if constexpr (!kObsEnabled) return;
  t_query_id = previous_;
}

}  // namespace lrd::obs
