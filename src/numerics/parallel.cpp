#include "numerics/parallel.hpp"

#include "runtime/executor.hpp"

namespace lrd::numerics {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  runtime::Executor::global().parallel_for(n, fn, threads);
}

}  // namespace lrd::numerics
