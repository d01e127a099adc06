#include "array/weight_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace echoimage::array {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

}  // namespace

WeightCache::WeightCache(WeightCacheConfig config) : config_(config) {
  if (config_.capacity == 0)
    throw std::invalid_argument("WeightCache: capacity must be positive");
  fallback_registry_ = std::make_shared<obs::MetricsRegistry>();
  bind_counters(*fallback_registry_);
}

void WeightCache::bind_counters(obs::MetricsRegistry& registry) {
  hits_ = &registry.counter("weight_cache.hits");
  misses_ = &registry.counter("weight_cache.misses");
  insertions_ = &registry.counter("weight_cache.insertions");
  flushes_ = &registry.counter("weight_cache.flushes");
}

void WeightCache::attach_metrics(obs::MetricsRegistry& registry) {
  bind_counters(registry);
  fallback_registry_.reset();
}

std::int64_t WeightCache::quantize_distance(units::Meters distance) const {
  const double distance_m = distance.value();
  if (config_.distance_quantum.value() <= 0.0)
    return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(distance_m));
  return static_cast<std::int64_t>(
      std::llround(distance_m / config_.distance_quantum.value()));
}

std::uint64_t WeightCache::mask_bits(const ChannelMask& mask,
                                     std::size_t num_channels) {
  if (num_channels > 64 || mask.size() > 64)
    throw std::invalid_argument("WeightCache: masks beyond 64 channels");
  if (mask.empty()) {
    // Empty mask = full array; encode as its explicit all-active bitset so
    // {} and {true, true, ...} share entries (they beamform identically).
    return num_channels >= 64 ? ~0ull : (1ull << num_channels) - 1ull;
  }
  std::uint64_t bits = 0;
  for (std::size_t c = 0; c < mask.size(); ++c)
    if (mask[c]) bits |= 1ull << c;
  return bits;
}

std::uint64_t WeightCache::fingerprint(const CMatrix& cov) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, cov.rows());
  h = fnv1a_u64(h, cov.cols());
  if (!cov.data().empty())
    h = fnv1a(h, cov.data().data(), cov.data().size() * sizeof(Complex));
  return h;
}

std::shared_ptr<const WeightTable> WeightCache::find(const WeightKey& key,
                                                     std::size_t rows) const {
  {
    const runtime::sync::SharedLockGuard lock(mutex_);
    for (const Entry& e : entries_) {
      if (e.key == key) {
        hits_->add(e.table->num_rows());
        return e.table;
      }
    }
  }
  misses_->add(rows);
  return nullptr;
}

std::shared_ptr<const WeightTable> WeightCache::publish(
    const WeightKey& key, std::shared_ptr<const WeightTable> table) {
  const runtime::sync::LockGuard lock(mutex_);
  for (const Entry& e : entries_)
    if (e.key == key) return e.table;
  const std::size_t rows = table->num_rows();
  if (rows > config_.capacity) return table;  // too large to keep resident
  evict_for(rows);
  entries_.push_back(Entry{key, table});
  resident_ += rows;
  insertions_->add(rows);
  return table;
}

void WeightCache::make_room(std::size_t rows) {
  const runtime::sync::LockGuard lock(mutex_);
  evict_for(std::min(rows, config_.capacity));
}

void WeightCache::evict_for(std::size_t rows) {
  std::size_t evicted = 0;
  while (evicted < entries_.size() && resident_ + rows > config_.capacity) {
    resident_ -= entries_[evicted].table->num_rows();
    ++evicted;
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<std::ptrdiff_t>(evicted));
  flushes_->add(evicted);
}

std::size_t WeightCache::size() const {
  const runtime::sync::SharedLockGuard lock(mutex_);
  return resident_;
}

WeightCacheStats WeightCache::stats() const {
  WeightCacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.insertions = insertions_->value();
  s.flushes = flushes_->value();
  return s;
}

void WeightCache::reset_stats() const {
  hits_->reset();
  misses_->reset();
  insertions_->reset();
  flushes_->reset();
}

void WeightCache::clear() {
  const runtime::sync::LockGuard lock(mutex_);
  flushes_->add(entries_.size());
  entries_.clear();
  resident_ = 0;
}

}  // namespace echoimage::array
