// Query correlation context: the 64-bit id that joins every forensic
// artifact a single query touches.
//
// A QueryId is minted once per query — at admission in the serve tier,
// at run start in the CLI tools, or lazily by the solver when nothing
// upstream minted one — and carried in a thread-local slot for the
// duration of the work. Every layer that emits an artifact reads the
// slot at emit time and stamps the id in:
//
//   flight events      -> "qid"       (flight.cpp, record time)
//   access records     -> "query_id"  (eventlog.cpp)
//   trace spans        -> args "qid"  (trace.cpp)
//   profiler samples   -> "query_id"  (profiler.cpp, from SIGPROF)
//   serve responses    -> "query_id"  (protocol.cpp, echoed to clients)
//   crash bundles      -> via the flight + profile tails
//
// `lrdq_doctor query <id>` joins the artifacts back together.
//
// The slot is a plain thread_local integer: reading it is
// async-signal-safe (the SIGPROF sampler and the crash handler both
// do), and a handful of instructions on the hot path. Ids are 48-bit
// nonzero values so they survive a round trip through JSON doubles;
// 0 means "no query in scope" and is never minted.
//
// Compiled out with the rest of the obs layer under -DLRD_OBS_DISABLED:
// minting returns 0 and scopes are empty.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"  // kObsEnabled

namespace lrd::obs {

/// Correlation id of one query. 0 = no query in scope.
using QueryId = std::uint64_t;

/// Mints a fresh process-unique id: nonzero, at most 48 bits (exact in
/// JSON numbers), mixed from steady time, the pid and a counter so ids
/// from concurrent daemons rarely collide.
QueryId mint_query_id() noexcept;

/// The calling thread's active query id, 0 when none. One TLS load —
/// async-signal-safe, callable from the SIGPROF sampler.
QueryId current_query_id() noexcept;

/// RAII scope: installs `id` as the thread's active query id and
/// restores the previous one on destruction, so nested scopes (a serve
/// worker running a solver that would mint its own) compose.
class QueryScope {
 public:
  explicit QueryScope(QueryId id) noexcept;
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  QueryId id() const noexcept { return id_; }

 private:
  QueryId id_ = 0;
  QueryId previous_ = 0;
};

}  // namespace lrd::obs
