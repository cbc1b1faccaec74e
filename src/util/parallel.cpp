#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace surfnet::util {

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int pool_workers(std::int64_t count, int threads) {
  return static_cast<int>(
      std::clamp<std::int64_t>(count, 1, resolve_threads(threads)));
}

double parallel_for(std::int64_t count, int threads, std::int64_t chunk_size,
                    const ChunkFn& chunk) {
  if (chunk_size < 1)
    throw std::invalid_argument("parallel_for: chunk_size must be >= 1");
  const int workers = pool_workers(count, threads);
  std::atomic<std::int64_t> cursor{0};
  std::vector<double> busy_seconds(static_cast<std::size_t>(workers));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  const auto run_worker = [&](int worker) {
    const auto start = std::chrono::steady_clock::now();
    try {
      while (true) {
        const std::int64_t begin =
            cursor.fetch_add(chunk_size, std::memory_order_relaxed);
        if (begin >= count) break;
        chunk(worker, begin, std::min(begin + chunk_size, count));
      }
    } catch (...) {
      // Hand the exception to the caller after the join; the other
      // workers stop at their next chunk.
      errors[static_cast<std::size_t>(worker)] = std::current_exception();
      cursor.store(count, std::memory_order_relaxed);
    }
    busy_seconds[static_cast<std::size_t>(worker)] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  };
  std::vector<std::jthread> pool;  // joins on destruction
  for (int w = 1; w < workers; ++w) pool.emplace_back(run_worker, w);
  run_worker(0);
  pool.clear();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return std::accumulate(busy_seconds.begin(), busy_seconds.end(), 0.0);
}

}  // namespace surfnet::util
