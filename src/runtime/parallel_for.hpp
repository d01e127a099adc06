// Deterministic data-parallel loops over a ThreadPool.
//
// `parallel_for` statically splits [0, n) into one contiguous chunk per
// worker. Each index is visited exactly once, so a body that writes only to
// per-index output slots produces bit-identical results for every worker
// count — the foundation of the imaging engine's determinism guarantee.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace echoimage::runtime {

/// Contiguous static chunk of worker `w` out of `workers` over [0, n).
struct IndexRange {
  std::size_t first = 0;
  std::size_t last = 0;
};
[[nodiscard]] inline IndexRange static_chunk(std::size_t n, std::size_t w,
                                             std::size_t workers) {
  return {n * w / workers, n * (w + 1) / workers};
}

/// body(i, worker) for every i in [0, n), each exactly once. Worker 0 is
/// the calling thread; with a one-worker pool this is a plain serial loop.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, const Body& body) {
  if (n == 0) return;
  const std::size_t workers = std::min(pool.num_workers(), n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, std::size_t{0});
    return;
  }
  pool.run([&](std::size_t w) {
    if (w >= workers) return;
    const IndexRange r = static_chunk(n, w, workers);
    for (std::size_t i = r.first; i < r.last; ++i) body(i, w);
  });
}

/// Per-worker scratch storage, one padded slot per worker index so two
/// workers never share a cache line through their scratch state.
template <typename T>
class ScratchArena {
 public:
  explicit ScratchArena(std::size_t workers)
      : slots_(std::max<std::size_t>(1, workers)) {}
  explicit ScratchArena(const ThreadPool& pool)
      : ScratchArena(pool.num_workers()) {}

  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  [[nodiscard]] T& local(std::size_t worker) { return slots_[worker].value; }
  [[nodiscard]] const T& local(std::size_t worker) const {
    return slots_[worker].value;
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace echoimage::runtime
