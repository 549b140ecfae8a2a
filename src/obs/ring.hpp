// The recording primitives shared by the flight recorder, the sampling
// profiler and the trace spans: one single-writer ring, one set of
// async-signal-safe formatters, and one temp+rename file writer.
//
// Ring discipline. Each ring has exactly one writer (its owning thread,
// or that thread's own signal handler when the two cannot interleave).
// The writer announces which slot it is about to overwrite, stores the
// element as relaxed atomic 64-bit words, and publishes it with one
// release store of the ring's sequence number, so an append takes no
// lock and allocates nothing. Readers take no lock either: they copy the
// newest published slots, then check the announcement and drop every
// slot the writer may have started to overwrite meanwhile. A read
// therefore never returns a torn element — only an exact, recent tail;
// anything older than the capacity is gone by design. Reading uses
// atomic loads and memcpy only, so a signal handler may read (the crash
// bundle does).
//
// Storage is inline and constant-initialized: a ring at namespace scope
// lives in zero-filled static storage, so a slot costs resident memory
// only once it has been written.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace lrd::obs {

template <typename T, std::size_t Cap>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>, "ring elements are copied as raw words");
  static_assert(sizeof(T) % 8 == 0, "ring elements are whole 64-bit words");
  static_assert(Cap > 0);
  static constexpr std::size_t kWords = sizeof(T) / 8;

 public:
  /// Appends `v`, overwriting the oldest element once the ring is full.
  /// Only the owning thread may call this.
  void push(const T& v) noexcept {
    std::uint64_t w[kWords];
    std::memcpy(w, &v, sizeof v);
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    // Announce the overwrite before touching the slot: a reader that sees
    // any of the new words also sees claimed_ > s (the fence orders the
    // two), which is what read_tail's lap check relies on.
    claimed_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Slot& slot = slots_[s % Cap];
    for (std::size_t i = 0; i < kWords; ++i) slot.w[i].store(w[i], std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_release);
  }

  /// Elements appended since construction or the last clear(); the
  /// newest min(appended(), Cap) of them are readable.
  std::uint64_t appended() const noexcept { return seq_.load(std::memory_order_acquire); }

  /// Copies the newest `max` elements (at most Cap) into `out`, oldest
  /// first, and returns the count; `*first` receives the append index of
  /// out[0]. Slots the writer lapped during the copy are dropped, so
  /// every returned element is intact. Async-signal-safe.
  std::size_t read_tail(T* out, std::size_t max, std::uint64_t* first = nullptr) const noexcept {
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    std::uint64_t lo = s1 > Cap ? s1 - Cap : 0;
    if (s1 - lo > max) lo = s1 - max;
    std::size_t n = 0;
    for (std::uint64_t k = lo; k < s1; ++k, ++n) {
      std::uint64_t w[kWords];
      const Slot& slot = slots_[k % Cap];
      for (std::size_t i = 0; i < kWords; ++i) w[i] = slot.w[i].load(std::memory_order_relaxed);
      std::memcpy(&out[n], w, sizeof(T));
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    // Once the writer has claimed index c - 1, every index below c - Cap
    // may have been (partly) overwritten.
    const std::uint64_t c = claimed_.load(std::memory_order_relaxed);
    const std::uint64_t safe = c > Cap ? c - Cap : 0;
    if (safe > lo) {
      const std::size_t drop = safe - lo < n ? static_cast<std::size_t>(safe - lo) : n;
      std::memmove(out, out + drop, (n - drop) * sizeof(T));
      n -= drop;
      lo += drop;
    }
    if (first != nullptr) *first = lo;
    return n;
  }

  /// Forgets every element. Only while no thread appends.
  void clear() noexcept {
    seq_.store(0, std::memory_order_relaxed);
    claimed_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> w[kWords];
  };
  std::atomic<std::uint64_t> seq_{0};      // elements published
  std::atomic<std::uint64_t> claimed_{0};  // elements whose write has begun
  Slot slots_[Cap];
};

/// JSON-safe replacement for one byte: quotes, backslashes and control
/// bytes become '_', so recorded strings never need escaping.
constexpr char json_safe(char c) noexcept {
  const auto u = static_cast<unsigned char>(c);
  return (u < 0x20 || u == 0x7f || c == '"' || c == '\\') ? '_' : c;
}

/// Copies `src` JSON-safely into `dst`, truncating to cap - 1 bytes and
/// NUL-terminating. Async-signal-safe.
inline void copy_json_safe(char* dst, std::size_t cap, std::string_view src) noexcept {
  std::size_t n = 0;
  for (; n < src.size() && n + 1 < cap; ++n) dst[n] = json_safe(src[n]);
  dst[n] = '\0';
}

/// Bounded line builder over a caller-owned buffer: no allocation, no
/// stdio, no locale, so it is async-signal-safe. Output beyond the
/// buffer is dropped and remembered; size() returns 0 for a line that
/// did not fit.
class SafeLine {
 public:
  SafeLine(char* buf, std::size_t cap) noexcept : buf_(buf), cap_(cap) {}

  SafeLine& ch(char c) noexcept {
    if (n_ < cap_) buf_[n_] = c;
    ++n_;
    return *this;
  }
  SafeLine& str(std::string_view s) noexcept {
    for (char c : s) ch(c);
    return *this;
  }
  /// Appends `s` with json_safe applied to every byte.
  SafeLine& safe(std::string_view s) noexcept {
    for (char c : s) ch(json_safe(c));
    return *this;
  }
  SafeLine& u64(std::uint64_t v, unsigned base = 10) noexcept {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = "0123456789abcdef"[v % base];
      v /= base;
    } while (v != 0);
    while (n > 0) ch(digits[--n]);
    return *this;
  }
  SafeLine& hex(std::uint64_t v) noexcept { return str("0x").u64(v, 16); }
  /// Fixed-point `v` with `decimals` digits. NaN and infinities become
  /// null; magnitudes beyond uint64 are clamped to 9.2e18 — recorded
  /// measures (microseconds, milliseconds, costs) never get there.
  SafeLine& fixed(double v, int decimals) noexcept {
    if (!(v == v) || v > 1e300 || v < -1e300) return str("null");
    if (v < 0) {
      ch('-');
      v = -v;
    }
    if (v >= 9.2e18) return str("9.2e18");
    std::uint64_t scale = 1;
    for (int i = 0; i < decimals; ++i) scale *= 10;
    std::uint64_t ip = static_cast<std::uint64_t>(v);
    std::uint64_t frac =
        static_cast<std::uint64_t>((v - static_cast<double>(ip)) * static_cast<double>(scale) + 0.5);
    if (frac >= scale) {
      frac -= scale;
      ++ip;
    }
    u64(ip);
    if (decimals > 0) {
      ch('.');
      for (std::uint64_t div = scale / 10; div != 0; div /= 10)
        ch(static_cast<char>('0' + (frac / div) % 10));
    }
    return *this;
  }

  /// Bytes written, or 0 when the line did not fit.
  std::size_t size() const noexcept { return n_ <= cap_ ? n_ : 0; }
  /// NUL-terminates the line in place (replacing its last byte when the
  /// buffer is full) and returns the buffer.
  const char* c_str() noexcept {
    buf_[n_ < cap_ ? n_ : cap_ - 1] = '\0';
    return buf_;
  }

 private:
  char* buf_;
  std::size_t cap_;
  std::size_t n_ = 0;
};

/// Writes `body` to `path` atomically: a sibling temp file, flushed and
/// closed, then rename(2) over `path`. On any I/O error the temp file is
/// removed and `path` is untouched. Not async-signal-safe.
inline bool write_file_atomic(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace lrd::obs
