#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

namespace echoimage::runtime {
namespace {

// Cheap deterministic pseudo-random doubles (splitmix64-style) so reduction
// tests sum values whose rounding actually depends on the fold order.
double noise(std::size_t i) {
  std::uint64_t z = (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z) / 1e19 - 0.9;
}

TEST(StaticChunk, CoversRangeDisjointlyInOrder) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{100}}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                      std::size_t{8}}) {
      std::size_t covered = 0;
      std::size_t prev_last = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const IndexRange r = static_chunk(n, w, workers);
        EXPECT_EQ(r.first, prev_last);  // contiguous, ascending
        EXPECT_LE(r.first, r.last);
        covered += r.last - r.first;
        prev_last = r.last;
      }
      EXPECT_EQ(prev_last, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{17}, std::size_t{64}}) {
      std::vector<std::atomic<int>> counts(n);
      parallel_for(pool, n, [&](std::size_t i, std::size_t worker) {
        EXPECT_LT(worker, pool.num_workers());
        ++counts[i];
      });
      for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
    }
  }
}

TEST(ParallelFor, SlotWritesAreBitIdenticalAcrossPoolSizes) {
  const std::size_t n = 131;  // odd on purpose
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = noise(i) * noise(i + 7);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> out(n, 0.0);
    parallel_for(pool, n, [&](std::size_t i, std::size_t) {
      out[i] = noise(i) * noise(i + 7);
    });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(reference[i]));
  }
}

TEST(ScratchArena, SlotsAreIndependentPerWorker) {
  ThreadPool pool(4);
  ScratchArena<std::vector<int>> arena(pool);
  ASSERT_EQ(arena.num_slots(), 4u);
  parallel_for(pool, 400, [&](std::size_t, std::size_t worker) {
    arena.local(worker).push_back(static_cast<int>(worker));
  });
  std::size_t total = 0;
  for (std::size_t w = 0; w < arena.num_slots(); ++w) {
    for (const int v : arena.local(w))
      EXPECT_EQ(v, static_cast<int>(w));  // never another worker's writes
    total += arena.local(w).size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(ScratchArena, ZeroWorkersStillHasOneSlot) {
  ScratchArena<int> arena(std::size_t{0});
  EXPECT_EQ(arena.num_slots(), 1u);
  arena.local(0) = 7;
  EXPECT_EQ(arena.local(0), 7);
}

}  // namespace
}  // namespace echoimage::runtime
