// printf into a std::string sized by a first vsnprintf pass. Every text
// renderer in obs (lrdq_doctor's tables, lrdq_bench_check's verdicts)
// formats its rows through it, so no field (a demangled template frame,
// a client id, a bench key) is ever cut short and every row keeps its
// newline.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

namespace lrd::obs {

__attribute__((format(printf, 1, 2))) inline std::string fmt(const char* f, ...) {
  va_list ap, again;
  va_start(ap, f);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, f, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, f, again);
  va_end(again);
  return out;
}

}  // namespace lrd::obs
