#pragma once

// The library's one worker pool, behind both trial runners
// (decoder/trial_runner.h, core/surfnet.h). Each runner stays thread-count
// invariant by seeding every trial from its index alone.

#include <cstdint>
#include <functional>

namespace surfnet::util {

/// Resolve a --threads style value: <= 0 means hardware concurrency
/// (at least 1).
int resolve_threads(int threads);

/// The number of workers parallel_for(count, threads, ...) runs:
/// resolve_threads(threads), at most `count`, at least 1.
int pool_workers(std::int64_t count, int threads);

/// One chunk of parallel_for: the items [begin, end), all run by `worker`.
using ChunkFn =
    std::function<void(int worker, std::int64_t begin, std::int64_t end)>;

/// Calls chunk(worker, begin, end) for consecutive chunks of `chunk_size`
/// items covering [0, count), on pool_workers(count, threads) workers that
/// pull chunks from an atomic cursor, the calling thread being worker 0.
/// A chunk's exception stops the workers at their next chunk and is
/// rethrown here once all have joined. Returns the workers' time on
/// chunks, summed. Throws std::invalid_argument if chunk_size < 1.
double parallel_for(std::int64_t count, int threads, std::int64_t chunk_size,
                    const ChunkFn& chunk);

}  // namespace surfnet::util
