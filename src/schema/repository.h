#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/schema.h"

/// \file repository.h
/// \brief A collection of schemas that queries are matched against.
///
/// Models the paper's "large schema repository" (§1): the search space of a
/// matching problem is the set of mappings from a small personal schema into
/// the elements of these schemas.

namespace smb::schema {

/// \brief Addresses one element inside a repository:
/// (schema index, node within that schema).
struct ElementRef {
  int32_t schema_index = -1;
  NodeId node = kInvalidNode;

  bool operator==(const ElementRef& other) const {
    return schema_index == other.schema_index && node == other.node;
  }
  bool operator<(const ElementRef& other) const {
    if (schema_index != other.schema_index) {
      return schema_index < other.schema_index;
    }
    return node < other.node;
  }
};

/// \brief How one node of a schema relates to another, with the exact gap
/// or distance: what the objective's edge cost reads (match/objective.h).
///
/// `code = distance << 2 | kind`, where `distance` is the number of tree
/// edges between the two nodes: 0 for the same node, the depth gap when one
/// is an ancestor of the other (1 for a parent-child pair).
using RelationCode = uint16_t;

/// The relation of a first node `p` to a second node `c`. Bit 1 is set
/// exactly when `c` is outside `p`'s subtree; the code fill relies on it.
enum class RelationKind : uint8_t {
  kSame = 0,       ///< `p == c`.
  kAncestor = 1,   ///< `p` is a proper ancestor of `c`.
  kInverted = 2,   ///< `c` is a proper ancestor of `p`.
  kUnrelated = 3,  ///< Neither; the distance runs through their LCA.
};

/// The largest distance a code holds exactly.
inline constexpr int kMaxRelationDistance = 0xFFFF >> 2;

/// The most elements a repository schema may have. Its codes take n² × 2
/// bytes, 32 MiB at this size; `Add` rejects a larger schema before it
/// allocates any. No two nodes of a schema this small are more than n − 1
/// edges apart, so codes never saturate.
inline constexpr size_t kMaxSchemaElements = 4096;
static_assert(kMaxSchemaElements - 1 <=
              static_cast<size_t>(kMaxRelationDistance));

inline RelationCode MakeRelationCode(RelationKind kind, int distance) {
  return static_cast<RelationCode>((distance << 2) |
                                   static_cast<int>(kind));
}
inline RelationKind RelationKindOf(RelationCode code) {
  return static_cast<RelationKind>(code & 3);
}
inline int RelationDistance(RelationCode code) { return code >> 2; }

/// \brief An immutable-after-build set of schemas.
///
/// Each schema gets an n × n table of relation codes when it is added, all
/// kept in one vector: the per-state edge costs of the matchers are lookups
/// into it, never tree walks.
class SchemaRepository {
 public:
  SchemaRepository() = default;

  /// \brief Adds a schema (validated first, at most `kMaxSchemaElements`
  /// elements) and builds its relation codes. Returns its index. A rejected
  /// schema changes nothing.
  Result<int32_t> Add(Schema schema);

  /// Number of schemas.
  size_t schema_count() const { return schemas_.size(); }

  /// Total number of elements across all schemas.
  size_t total_elements() const { return total_elements_; }

  /// True iff `index` addresses a schema.
  bool IsValidIndex(int32_t index) const {
    return index >= 0 && static_cast<size_t>(index) < schemas_.size();
  }

  /// Schema accessor; `index` must be valid.
  const Schema& schema(int32_t index) const {
    return schemas_[static_cast<size_t>(index)];
  }

  /// All schemas.
  const std::vector<Schema>& schemas() const { return schemas_; }

  /// Every element of every schema, in (schema, pre-order) order.
  std::vector<ElementRef> AllElements() const;

  /// The node behind a reference; the reference must be valid.
  const SchemaNode& Resolve(const ElementRef& ref) const {
    return schema(ref.schema_index).node(ref.node);
  }

  /// True iff `ref` addresses an element of this repository.
  bool IsValidRef(const ElementRef& ref) const {
    return IsValidIndex(ref.schema_index) &&
           schema(ref.schema_index).IsValid(ref.node);
  }

  /// Finds a schema by document name; -1 when absent.
  int32_t FindByName(const std::string& name) const;

  /// \brief The n × n relation codes of schema `index` (n its size), row
  /// by first node: entry `p * n + c` relates `p` to `c`.
  const RelationCode* relation_codes(int32_t index) const {
    return relation_codes_.data() +
           code_offsets_[static_cast<size_t>(index)];
  }

  /// The largest code of any schema; 0 when the repository is empty.
  RelationCode max_relation_code() const { return max_relation_code_; }

 private:
  std::vector<Schema> schemas_;
  size_t total_elements_ = 0;
  std::vector<RelationCode> relation_codes_;
  /// Where each schema's codes start in `relation_codes_`.
  std::vector<size_t> code_offsets_;
  RelationCode max_relation_code_ = 0;
};

}  // namespace smb::schema
