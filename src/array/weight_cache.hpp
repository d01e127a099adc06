// Memoized beamformer weights for the imaging hot path, one dense table
// per band sweep.
//
// Constructing one acoustic image steers the array to G x G grid
// directions per spectral band; each MVDR steer costs a steering vector
// plus a covariance solve. All of that is a
// pure function of (grid geometry, plane distance, speed of sound,
// surviving subarray, noise covariance), so repeated beeps at the same
// estimated distance — the common case, since a batch shares one distance
// estimate and users stand still between beeps — can reuse the weights
// verbatim.
//
// Tables. The unit of caching is a WeightTable: one contiguous G^2 x M
// block whose row k holds the weights of grid k. The imager looks every
// band's table up before its first band's sweep; on a miss that sweep's
// row tasks fill the fresh tables' disjoint rows, and the filled tables
// are published afterwards. The
// pixel loop therefore takes no lock, hashes nothing and allocates
// nothing.
//
// Keying. A table is identified by:
//   * band                       — which spectral band (center frequency),
//   * quantized plane distance   — distances within one quantum share a
//                                  table (the stored weights are the ones
//                                  computed at the first-seen distance;
//                                  the default 1 mm quantum is far below
//                                  the distance estimator's noise floor),
//   * speed-of-sound bit pattern — a recalibrated c can never alias a
//                                  stale table,
//   * channel-mask bits          — a degraded subarray can never alias the
//                                  full array (weight vectors even differ
//                                  in length),
//   * covariance fingerprint     — a different noise field invalidates the
//                                  MVDR solve,
//   * mvdr flag                  — MVDR and delay-and-sum never mix.
//
// Determinism. Weights are computed by the imager and published verbatim;
// a hit returns exactly the bits a recompute would produce (the weight
// computation is deterministic), so cache-on and cache-off imaging are
// bit-identical. The first publisher of a key wins; a racing duplicate is
// dropped (both computed identical bits). Tables are immutable once
// published and shared by pointer, so an evicted table stays valid for any
// sweep still reading it.
//
// Capacity is counted in weight vectors (table rows). Publishing a table
// that would exceed it evicts whole tables, oldest first — never the one
// being published; a table larger than the whole capacity is not kept.
//
// Thread safety: lookups take a shared lock, publishes an exclusive lock
// on a runtime::sync::SharedMutex capability, so the table list's lock
// discipline is proven by the Clang thread-safety build. Accounting counts
// weight vectors, in bulk: a hit adds the table's rows to `hits`, a miss
// the requested rows to `misses`, a winning publish its rows to
// `insertions`; `flushes` counts evicted tables. The counters are
// obs::Counter handles in a private registry until `attach_metrics`
// rebinds them into the system-wide observability registry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "array/covariance.hpp"
#include "array/geometry.hpp"
#include "obs/metrics.hpp"
#include "runtime/sync.hpp"

namespace echoimage::array {

struct WeightKey {
  std::uint32_t band = 0;
  std::int64_t distance_q = 0;     ///< quantized plane distance
  std::uint64_t speed_bits = 0;    ///< bit pattern of the speed of sound
  std::uint64_t mask_bits = 0;     ///< active-channel bitset (see mask_bits)
  std::uint64_t cov_fingerprint = 0;
  bool mvdr = true;

  bool operator==(const WeightKey&) const = default;
};

/// Dense weights of one band sweep: `num_rows` weight vectors of
/// `num_channels` entries each, row k contiguous.
class WeightTable {
 public:
  WeightTable(std::size_t num_rows, std::size_t num_channels)
      : num_rows_(num_rows),
        num_channels_(num_channels),
        weights_(num_rows * num_channels) {}

  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::size_t num_channels() const { return num_channels_; }
  [[nodiscard]] Complex* row(std::size_t k) {
    return weights_.data() + k * num_channels_;
  }
  [[nodiscard]] const Complex* row(std::size_t k) const {
    return weights_.data() + k * num_channels_;
  }

 private:
  std::size_t num_rows_;
  std::size_t num_channels_;
  std::vector<Complex> weights_;
};

struct WeightCacheConfig {
  /// Resident weight vectors (table rows) across all tables. The default
  /// holds eight 180x180 tables, or ~22 full 48x48 x 5-band images.
  std::size_t capacity = 1u << 18;
  /// Plane distances are quantized to this step for the key; <= 0 keys on
  /// the exact bit pattern.
  units::Meters distance_quantum{1e-3};
};

struct WeightCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t flushes = 0;  ///< evicted tables

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class WeightCache {
 public:
  explicit WeightCache(WeightCacheConfig config = {});

  [[nodiscard]] const WeightCacheConfig& config() const { return config_; }

  /// Distance quantization used for keys (bit pattern when quantum <= 0).
  [[nodiscard]] std::int64_t quantize_distance(units::Meters distance) const;

  /// Canonical 64-bit encoding of an active-channel mask (empty mask = all
  /// `num_channels` active). Masks beyond 64 channels are rejected with
  /// std::invalid_argument — far beyond any supported array.
  [[nodiscard]] static std::uint64_t mask_bits(const ChannelMask& mask,
                                               std::size_t num_channels);

  /// FNV-1a over the covariance matrix bytes + shape: tables solved
  /// against different noise fields never collide in practice.
  [[nodiscard]] static std::uint64_t fingerprint(const CMatrix& cov);

  /// The resident table for `key` (counting its rows as hits), or null
  /// (counting `rows` misses).
  [[nodiscard]] std::shared_ptr<const WeightTable> find(const WeightKey& key,
                                                        std::size_t rows) const;

  /// Make `table` resident under `key` and return the resident table. The
  /// first publisher wins: when `key` is already resident, that table is
  /// returned and `table` is dropped.
  std::shared_ptr<const WeightTable> publish(
      const WeightKey& key, std::shared_ptr<const WeightTable> table);

  /// Evict the oldest tables until `rows` more weight vectors fit (or
  /// nothing is left), counting each as a flush. A caller about to fill
  /// several tables at once calls it first, so the tables it will publish
  /// replace old ones instead of coexisting with them while they fill.
  void make_room(std::size_t rows);

  /// Resident weight vectors (never above the capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] WeightCacheStats stats() const;
  /// Zero the counters (const: accounting is observational state, so a
  /// bench can reset it through the imager's read-only cache handle).
  void reset_stats() const;
  /// Drop every table, counting each as a flush.
  void clear();

  /// Rebind the accounting counters (`weight_cache.hits` etc.) into an
  /// external registry — the system observability registry — instead of
  /// the private fallback. Counts recorded before the rebind stay in the
  /// old registry, so attach before first use. `registry` must outlive
  /// this cache.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    WeightKey key;
    std::shared_ptr<const WeightTable> table;
  };

  void bind_counters(obs::MetricsRegistry& registry);
  /// Drop the oldest tables until `rows` more fit.
  void evict_for(std::size_t rows) EI_REQUIRES(mutex_);

  WeightCacheConfig config_;
  runtime::sync::SharedMutex mutex_;
  /// Resident tables, oldest first (the eviction order).
  std::vector<Entry> entries_ EI_GUARDED_BY(mutex_);
  std::size_t resident_ EI_GUARDED_BY(mutex_) = 0;
  /// Owns the counters until attach_metrics points them elsewhere.
  std::shared_ptr<obs::MetricsRegistry> fallback_registry_;
  const obs::Counter* hits_ = nullptr;
  const obs::Counter* misses_ = nullptr;
  const obs::Counter* insertions_ = nullptr;
  const obs::Counter* flushes_ = nullptr;
};

}  // namespace echoimage::array
