#include "array/weight_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/imaging.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"

namespace echoimage::array {
namespace {

WeightKey some_key() {
  WeightKey k;
  k.band = 1;
  k.distance_q = 700;
  k.speed_bits = std::bit_cast<std::uint64_t>(343.0);
  k.mask_bits = 0x3f;
  k.cov_fingerprint = 0xdeadbeef;
  k.mvdr = true;
  return k;
}

/// A table of `rows` weight vectors of 3 channels; entry (k, c) encodes
/// seed, k and c so tables are distinguishable by content.
std::shared_ptr<WeightTable> some_table(std::size_t rows, double seed = 1.0) {
  auto t = std::make_shared<WeightTable>(rows, 3);
  for (std::size_t k = 0; k < rows; ++k)
    for (std::size_t c = 0; c < 3; ++c)
      t->row(k)[c] = Complex(seed * 0.1 * static_cast<double>(k + 1),
                             static_cast<double>(c) - seed);
  return t;
}

TEST(WeightCache, HitMissAccountingIsExact) {
  // Accounting is per weight vector, in bulk: one lookup of a 100-row
  // table is 100 hits or 100 misses.
  WeightCache cache;
  const WeightKey k = some_key();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(cache.find(k, 100), nullptr);
  (void)cache.publish(k, some_table(100));
  for (int i = 0; i < 7; ++i) EXPECT_NE(cache.find(k, 100), nullptr);
  const WeightCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 500u);
  EXPECT_EQ(s.hits, 700u);
  EXPECT_EQ(s.insertions, 100u);
  EXPECT_EQ(s.flushes, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 7.0 / 12.0);
  cache.reset_stats();
  const WeightCacheStats z = cache.stats();
  EXPECT_EQ(z.hits + z.misses + z.insertions + z.flushes, 0u);
  EXPECT_EQ(z.hit_rate(), 0.0);
}

TEST(WeightCache, HitReturnsTheInsertedBitsVerbatim) {
  WeightCache cache;
  const auto t = some_table(4, 0.1);  // 0.1 is inexact: real bits
  const auto resident = cache.publish(some_key(), t);
  EXPECT_EQ(resident, t);
  const auto hit = cache.find(some_key(), 4);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->num_rows(), 4u);
  ASSERT_EQ(hit->num_channels(), 3u);
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->row(k)[c].real()),
                std::bit_cast<std::uint64_t>(t->row(k)[c].real()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->row(k)[c].imag()),
                std::bit_cast<std::uint64_t>(t->row(k)[c].imag()));
    }
  }
}

TEST(WeightCache, SpeedOfSoundChangeNeverHitsStaleEntries) {
  // A drift recalibration changes c; every key component else equal, the
  // old table must be unreachable.
  WeightCache cache;
  WeightKey k = some_key();
  (void)cache.publish(k, some_table(2));
  WeightKey recal = k;
  recal.speed_bits = std::bit_cast<std::uint64_t>(346.12);
  EXPECT_EQ(cache.find(recal, 2), nullptr);
  // Even a 1-ulp change in c misses: keys use the exact bit pattern.
  WeightKey ulp = k;
  ulp.speed_bits = k.speed_bits + 1;
  EXPECT_EQ(cache.find(ulp, 2), nullptr);
  EXPECT_NE(cache.find(k, 2), nullptr);  // the original stays reachable
}

TEST(WeightCache, TablesWithDifferentKeysNeverAlias) {
  // Every key component separates tables: publish one table per variant
  // and check that each lookup returns its own.
  const WeightCache quantizer;
  std::vector<WeightKey> keys{some_key()};
  const auto vary = [&](auto&& change) {
    WeightKey k = some_key();
    change(k);
    keys.push_back(k);
  };
  vary([](WeightKey& k) { k.band = 2; });
  vary([](WeightKey& k) { k.mask_bits = 0x3b; });  // channel 2 condemned
  vary([](WeightKey& k) { k.cov_fingerprint ^= 1; });
  vary([](WeightKey& k) {
    k.speed_bits = std::bit_cast<std::uint64_t>(349.6);
  });
  vary([](WeightKey& k) { k.mvdr = false; });
  vary([&](WeightKey& k) {
    // One distance quantum further away.
    k.distance_q = quantizer.quantize_distance(units::Meters{0.701});
  });
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      ASSERT_FALSE(keys[i] == keys[j]) << i << " vs " << j;

  WeightCache cache;
  std::vector<std::shared_ptr<const WeightTable>> published;
  for (std::size_t i = 0; i < keys.size(); ++i)
    published.push_back(
        cache.publish(keys[i], some_table(2, static_cast<double>(i + 1))));
  EXPECT_EQ(cache.size(), 2 * keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(cache.find(keys[i], 2), published[i]) << "key " << i;
}

TEST(WeightCache, MaskBitsCannotAliasAcrossSubarrays) {
  // Empty mask means "all channels active" — identical to an explicit
  // all-true mask, and distinct from every degraded subarray.
  const std::uint64_t full = WeightCache::mask_bits({}, 6);
  EXPECT_EQ(full, 0x3fu);
  EXPECT_EQ(WeightCache::mask_bits(ChannelMask(6, true), 6), full);
  ChannelMask degraded(6, true);
  degraded[2] = false;
  const std::uint64_t deg = WeightCache::mask_bits(degraded, 6);
  EXPECT_NE(deg, full);
  ChannelMask other(6, true);
  other[5] = false;
  EXPECT_NE(WeightCache::mask_bits(other, 6), deg);
  // Same surviving channels, different array size: still distinct keys.
  EXPECT_NE(WeightCache::mask_bits({}, 4), WeightCache::mask_bits({}, 6));
}

TEST(WeightCache, MaskBitsRejectsMoreThan64Channels) {
  EXPECT_THROW((void)WeightCache::mask_bits({}, 65), std::invalid_argument);
  EXPECT_THROW((void)WeightCache::mask_bits(ChannelMask(65, true), 65),
               std::invalid_argument);
  EXPECT_NO_THROW((void)WeightCache::mask_bits(ChannelMask(64, true), 64));
}

TEST(WeightCache, DistanceQuantization) {
  using echoimage::units::Meters;
  WeightCacheConfig cfg;
  cfg.distance_quantum = Meters{1e-3};
  const WeightCache cache(cfg);
  // Distances within one quantum share a key; a full quantum apart differ.
  EXPECT_EQ(cache.quantize_distance(Meters{0.7000}),
            cache.quantize_distance(Meters{0.70004}));
  EXPECT_NE(cache.quantize_distance(Meters{0.700}),
            cache.quantize_distance(Meters{0.701}));
  // quantum <= 0 keys on the exact bit pattern: every distinct double is a
  // distinct key.
  WeightCacheConfig exact;
  exact.distance_quantum = Meters{0.0};
  const WeightCache ecache(exact);
  EXPECT_NE(ecache.quantize_distance(Meters{0.7}),
            ecache.quantize_distance(Meters{std::nextafter(0.7, 1.0)}));
  EXPECT_EQ(ecache.quantize_distance(Meters{0.7}),
            ecache.quantize_distance(Meters{0.7}));
}

TEST(WeightCache, CovarianceFingerprintSeparatesNoiseFields) {
  CMatrix a(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      a(r, c) = Complex(static_cast<double>(r + c), r == c ? 1.0 : 0.0);
  CMatrix b = a;
  EXPECT_EQ(WeightCache::fingerprint(a), WeightCache::fingerprint(b));
  b(1, 2) += Complex(1e-12, 0.0);  // tiny perturbation still separates
  EXPECT_NE(WeightCache::fingerprint(a), WeightCache::fingerprint(b));
  // Shape participates: a 1x9 with the same bytes is not a 3x3.
  CMatrix flat(1, 9);
  for (std::size_t i = 0; i < 9; ++i) flat(0, i) = a(i / 3, i % 3);
  EXPECT_NE(WeightCache::fingerprint(a), WeightCache::fingerprint(flat));
}

TEST(WeightCache, EvictionIsWholesaleNeverPartial) {
  // Capacity counts weight vectors; eviction drops whole tables, oldest
  // first, so a lookup never sees a partially evicted table.
  WeightCacheConfig cfg;
  cfg.capacity = 10;
  WeightCache cache(cfg);
  WeightKey k = some_key();
  std::vector<std::shared_ptr<const WeightTable>> tables;
  for (std::uint32_t band = 0; band < 2; ++band) {
    k.band = band;
    tables.push_back(cache.publish(k, some_table(4, band + 1.0)));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().flushes, 0u);
  // A third 4-row table would make 12 > 10: the oldest table goes, whole.
  k.band = 2;
  (void)cache.publish(k, some_table(4, 3.0));
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().flushes, 1u);
  k.band = 0;
  EXPECT_EQ(cache.find(k, 4), nullptr);
  k.band = 1;
  EXPECT_EQ(cache.find(k, 4), tables[1]);
  // The evicted table stays valid for anyone still holding it.
  EXPECT_EQ(tables[0]->row(3)[0].real(), 0.4);
}

TEST(WeightCache, PublishedTableIsNeverEvictedAndResidencyStaysBounded) {
  WeightCacheConfig cfg;
  cfg.capacity = 10;
  WeightCache cache(cfg);
  WeightKey k = some_key();
  // Publishing sizes 3, 3, 8, 2, 6, 10 in turn: after each publish the
  // just-published table is resident and the total stays within capacity.
  const std::size_t sizes[] = {3, 3, 8, 2, 6, 10};
  for (std::uint32_t i = 0; i < 6; ++i) {
    k.band = i;
    const auto t = some_table(sizes[i], i + 1.0);
    EXPECT_EQ(cache.publish(k, t), t);
    EXPECT_EQ(cache.find(k, sizes[i]), t) << "publish " << i;
    EXPECT_LE(cache.size(), cfg.capacity) << "publish " << i;
  }
  EXPECT_EQ(cache.size(), 10u);  // the 10-row table fills it alone
  // A table larger than the whole capacity is handed back, not kept, and
  // evicts nothing.
  k.band = 99;
  const auto huge = some_table(11);
  EXPECT_EQ(cache.publish(k, huge), huge);
  EXPECT_EQ(cache.find(k, 11), nullptr);
  EXPECT_EQ(cache.size(), 10u);
}

TEST(WeightCache, ReinsertingAnExistingKeyNeverFlushes) {
  WeightCacheConfig cfg;
  cfg.capacity = 4;
  WeightCache cache(cfg);
  WeightKey k = some_key();
  const auto original = cache.publish(k, some_table(4, 2.0));
  EXPECT_EQ(cache.size(), 4u);
  // At capacity, but this key is already resident: first publisher wins,
  // nothing is evicted and nothing is counted as inserted.
  EXPECT_EQ(cache.publish(k, some_table(4, 3.0)), original);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().flushes, 0u);
  EXPECT_EQ(cache.stats().insertions, 4u);
  EXPECT_EQ(cache.find(k, 4), original);
}

TEST(WeightCache, ClearEmptiesAndCountsAFlush) {
  WeightCache cache;
  (void)cache.publish(some_key(), some_table(3));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(cache.find(some_key(), 3), nullptr);
}

TEST(WeightCache, ZeroCapacityIsRejected) {
  WeightCacheConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(WeightCache{cfg}, std::invalid_argument);
}

TEST(WeightCache, ConcurrentLookupsAndInsertsStayConsistent) {
  // Racing publishers of the same keys (the TSan-labeled suite runs this
  // under ThreadSanitizer): each key ends with exactly one resident table,
  // and every thread is handed that table.
  WeightCache cache;
  constexpr std::uint32_t kKeys = 4;
  constexpr int kThreads = 4;
  std::vector<std::vector<std::shared_ptr<const WeightTable>>> seen(
      kThreads, std::vector<std::shared_ptr<const WeightTable>>(kKeys));
  const auto worker = [&](int t) {
    WeightKey k = some_key();
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      k.band = i;
      auto hit = cache.find(k, 8);
      if (hit == nullptr) hit = cache.publish(k, some_table(8, t + 1.0));
      ASSERT_EQ(hit->num_rows(), 8u);
      seen[t][i] = hit;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), 8u * kKeys);
  WeightKey k = some_key();
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    k.band = i;
    const auto resident = cache.find(k, 8);
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t][i], resident);
  }
  const WeightCacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 8u * kKeys);  // one winning publish per key
}

TEST(WeightCache, ThreeBeepBatchAtOneDistanceHitsTwoThirds) {
  // The deployment pattern: a batch of beeps shares one distance estimate,
  // so the first image solves every weight vector and the next two replay
  // them.
  const auto geometry = make_respeaker_array();
  const auto users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  const echoimage::eval::DataCollector collector(
      echoimage::sim::CaptureConfig{}, geometry, 7);
  const auto batch = collector.collect(users[0], {}, 3);
  ASSERT_EQ(batch.beeps.size(), 3u);
  echoimage::core::ImagingConfig cfg;
  cfg.grid_size = 8;
  cfg.num_subbands = 2;
  const echoimage::core::AcousticImager imager(cfg, geometry);
  for (const auto& beep : batch.beeps)
    (void)imager.construct_bands(beep, units::Meters{0.7}, 0.0002,
                                 batch.noise_only);
  const WeightCacheStats s = imager.weight_cache()->stats();
  EXPECT_EQ(s.misses, 2u * 64u);  // one table per band
  EXPECT_EQ(s.hits, 2u * 2u * 64u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);
}

}  // namespace
}  // namespace echoimage::array
