#include "index/name_row_cache.h"

#include <cassert>
#include <utility>

/// \file name_row_cache.cc
/// \brief The byte-bounded LRU of query-name similarity rows.

namespace smb::index {

NameRowCache::NameRowCache(const PreparedRepository* prepared,
                           size_t budget_bytes)
    : prepared_(prepared), budget_bytes_(budget_bytes) {
  assert(prepared_ != nullptr);
}

NameRow NameRowCache::Lookup(std::string_view folded,
                             uint64_t options_fingerprint) {
  const Key key{options_fingerprint, std::string(folded)};
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->row;
}

void NameRowCache::Insert(std::string_view folded,
                          uint64_t options_fingerprint, NameRow row) {
  assert(row != nullptr && row->size() == prepared_->name_count());
  const size_t bytes = EntryBytes(folded.size(), row->size());
  if (bytes > budget_bytes_) return;
  Key key{options_fingerprint, std::string(folded)};
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(row), bytes});
  index_.emplace(std::move(key), lru_.begin());
  stats_.bytes += bytes;
  while (stats_.bytes > budget_bytes_) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

NameRowCacheStats NameRowCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace smb::index
