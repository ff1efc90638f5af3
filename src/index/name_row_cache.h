#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/lru_cache.h"
#include "index/prepared_repository.h"

/// \file name_row_cache.h
/// \brief Cross-request cache of query-name similarity rows.
///
/// Candidate generation gathers a full-coverage cell from its query
/// position's *name row*: the exact similarity of the query name to every
/// distinct folded element name of the `PreparedRepository`, by name id
/// (candidate_generator.h). The row depends only on the folded query name
/// and the scorer options, and served query names repeat heavily across
/// requests, so one resident generation keeps the rows it computed here
/// and later requests gather from them without scoring a name.
///
/// **Key.** (folded query name, `match::FingerprintNameOptions` of the
/// scorer options). Two query names that fold alike prepare alike
/// (`sim::PrepareName` tokenizes the folded form), so they share a row; the
/// declared type is not part of the key, because the type penalty is
/// applied per element after the lookup. Different weights never share a
/// row.
///
/// **Value.** A complete, immutable row: one exact similarity per name id
/// of the cache's `PreparedRepository`, the value `sim::BlockScorer::Score`
/// returns for that name. Rows are handed out shared, so a reader keeps
/// its row valid even when it is evicted meanwhile.
///
/// **Bound.** A byte-bounded LRU (one stripe of common/lru_cache.h, so the
/// order is exact over the whole budget): every resident row is charged
/// `EntryBytes`, and an insert evicts least-recently-used rows until the
/// resident total is within the budget again. Rows still held by readers
/// after their eviction are not charged. The budget is fixed at
/// construction; serving uses `kDefaultBudgetBytes`.
///
/// **Lifetime.** A cache belongs to one `PreparedRepository` (name ids are
/// that index's); the serve path keeps one per serving generation, so a
/// reload drops it together with the index.
///
/// Thread-safe: any number of threads may look up and insert concurrently.
/// Two requests that miss on one name both compute its row; the second
/// insert replaces the first, which holds the same values.
namespace smb::index {

/// One shared, immutable name row: similarity by name id.
using NameRow = std::shared_ptr<const std::vector<double>>;

/// \brief Monotone counters plus the resident bytes.
struct NameRowCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Bytes charged for the rows resident now (at most the budget).
  uint64_t bytes = 0;
  /// Rows resident now.
  uint64_t entries = 0;
};

/// \brief Byte-bounded, thread-safe LRU from (folded query name, scorer
/// options fingerprint) to complete name rows of one `PreparedRepository`.
class NameRowCache {
 public:
  /// The serving budget: at 2k schemas (~3k names) a row is ~24 KB, so
  /// a couple of thousand distinct query names stay resident.
  static constexpr size_t kDefaultBudgetBytes = size_t{64} << 20;
  /// Charged per row on top of its similarities and key: the list and map
  /// nodes and the shared row's control block and vector header.
  static constexpr size_t kEntryOverheadBytes = 128;

  /// `prepared` must outlive the cache; its rows have
  /// `prepared->name_count()` entries.
  explicit NameRowCache(const PreparedRepository* prepared,
                        size_t budget_bytes = kDefaultBudgetBytes)
      : prepared_(prepared), rows_(budget_bytes, /*stripes=*/1) {
    assert(prepared_ != nullptr);
  }

  NameRowCache(const NameRowCache&) = delete;
  NameRowCache& operator=(const NameRowCache&) = delete;

  /// The index whose name ids the rows are indexed by.
  const PreparedRepository* prepared() const { return prepared_; }
  size_t budget_bytes() const { return rows_.capacity(); }

  /// \brief The row for (`folded`, `options_fingerprint`), or nullptr on a
  /// miss. A hit refreshes the row's recency.
  NameRow Lookup(std::string_view folded, uint64_t options_fingerprint) {
    return rows_.Lookup(Key{options_fingerprint, std::string(folded)});
  }

  /// \brief Stores a complete row (`prepared()->name_count()` entries)
  /// under the key, replacing a resident one, then evicts
  /// least-recently-used rows until the resident bytes fit the budget. A
  /// row larger than the whole budget is not stored.
  void Insert(std::string_view folded, uint64_t options_fingerprint,
              NameRow row) {
    assert(row != nullptr && row->size() == prepared_->name_count());
    const size_t bytes = EntryBytes(folded.size(), row->size());
    rows_.Insert(Key{options_fingerprint, std::string(folded)},
                 std::move(row), bytes);
  }

  NameRowCacheStats stats() const {
    const LruCacheStats rows = rows_.stats();
    return {rows.hits, rows.misses, rows.evictions, rows.charge,
            rows.entries};
  }

  /// Bytes charged for one resident row.
  static size_t EntryBytes(size_t folded_size, size_t row_size) {
    return row_size * sizeof(double) + folded_size + kEntryOverheadBytes;
  }

 private:
  struct Key {
    uint64_t options_fingerprint = 0;
    std::string folded;

    bool operator==(const Key& other) const {
      return options_fingerprint == other.options_fingerprint &&
             folded == other.folded;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return std::hash<std::string>{}(key.folded) ^
             static_cast<size_t>(key.options_fingerprint *
                                 0x9e3779b97f4a7c15ull);
    }
  };

  const PreparedRepository* prepared_;
  LruCache<Key, std::vector<double>, KeyHash> rows_;
};

}  // namespace smb::index
