// Content-addressed result cache for the estimation service.
//
// Keys are the canonical serialization of (dataset, method, options) —
// see Service::canonical_estimate_key — hashed with FNV-1a 64.  The
// hash picks a shard (so concurrent clients on different requests never
// contend on one mutex) and the full key string is stored alongside the
// value, so a hash collision degrades to a miss, never to a wrong
// answer.  Each shard is an independent LRU over its slice of the
// capacity; values are the exact response bytes, which is what makes a
// cache hit byte-identical to the miss that populated it.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "math/thread_annotations.hpp"

namespace vbsrm::serve {

/// FNV-1a 64-bit over the bytes of `s`.
std::uint64_t fnv1a64(std::string_view s);

class ResultCache {
 public:
  /// `capacity` entries total, spread over 8 independent LRU shards
  /// (each shard gets at least one slot).  capacity == 0 disables
  /// caching: get always misses, put is a no-op.
  explicit ResultCache(std::size_t capacity);

  /// Value for `key`, refreshing its LRU position; nullopt on miss.
  std::optional<std::string> get(const std::string& key);

  /// Insert or refresh `key`; evicts the shard's least-recently-used
  /// entry when the shard is full.
  void put(const std::string& key, std::string value);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  struct Shard {
    mutable math::Mutex mutex;
    std::list<Entry> lru GUARDED_BY(mutex);  // front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        GUARDED_BY(mutex);
    std::uint64_t hits GUARDED_BY(mutex) = 0;
    std::uint64_t misses GUARDED_BY(mutex) = 0;
    std::size_t capacity = 0;  // immutable after construction
  };

  Shard& shard_for(const std::string& key);

  std::size_t capacity_;
  std::vector<Shard> shards_;
};

}  // namespace vbsrm::serve
