#include "serve/cache.hpp"

#include <algorithm>

namespace vbsrm::serve {

namespace {
constexpr std::size_t kShards = 8;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity), shards_(kShards) {
  if (capacity_ == 0) return;
  for (std::size_t i = 0; i < kShards; ++i) {
    // Spread capacity as evenly as possible, at least 1 per shard.
    shards_[i].capacity = std::max<std::size_t>(1, (capacity_ + i) / kShards);
  }
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) {
  return shards_[fnv1a64(key) % shards_.size()];
}

std::optional<std::string> ResultCache::get(const std::string& key) {
  if (capacity_ == 0) return std::nullopt;
  Shard& s = shard_for(key);
  const math::MutexLock lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    ++s.misses;
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  ++s.hits;
  return it->second->value;
}

void ResultCache::put(const std::string& key, std::string value) {
  if (capacity_ == 0) return;
  Shard& s = shard_for(key);
  const math::MutexLock lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->value = std::move(value);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= s.capacity) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
  }
  s.lru.push_front(Entry{key, std::move(value)});
  s.index.emplace(key, s.lru.begin());
}

std::uint64_t ResultCache::hits() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    const math::MutexLock lock(s.mutex);
    n += s.hits;
  }
  return n;
}

std::uint64_t ResultCache::misses() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    const math::MutexLock lock(s.mutex);
    n += s.misses;
  }
  return n;
}

std::size_t ResultCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const math::MutexLock lock(s.mutex);
    n += s.lru.size();
  }
  return n;
}

}  // namespace vbsrm::serve
