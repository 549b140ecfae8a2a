// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the
// self-validating records of the solver cache's disk tier.
//
// The checksum guards against torn writes and silent corruption in the
// plain-text persistence files: each record carries the CRC of its own
// payload text, so a reader can skip (and quarantine) exactly the damaged
// records instead of discarding — or worse, trusting — the whole file.
// Table-driven, one 1 KiB table built on first use; throughput is far
// beyond what the text-file readers need.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lrd::runtime {

namespace detail {

inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

inline std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  const auto& table = detail::crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view s) noexcept { return crc32(s.data(), s.size()); }

}  // namespace lrd::runtime
