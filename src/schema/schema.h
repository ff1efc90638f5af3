#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file schema.h
/// \brief The schema tree model.
///
/// A schema is a rooted, ordered, labelled tree of *elements*. This is the
/// abstraction the matching layer consumes: it deliberately ignores XSD
/// details (facets, cardinalities, namespaces) that the paper's matching
/// problem does not use. Personal (query) schemas and repository schemas use
/// the same representation.

namespace smb::schema {

/// Index of a node within its schema; dense, stable, pre-order by creation.
using NodeId = int32_t;

/// Sentinel for "no node" (e.g., the parent of the root).
inline constexpr NodeId kInvalidNode = -1;

/// \brief One element of a schema tree.
struct SchemaNode {
  /// Element tag name, e.g. "author".
  std::string name;
  /// Optional simple-type name, e.g. "string"; empty when untyped.
  std::string type;
  /// Parent node, `kInvalidNode` for the root.
  NodeId parent = kInvalidNode;
  /// Children in document order.
  std::vector<NodeId> children;
  /// Root has depth 0.
  int depth = 0;
};

/// \brief A rooted labelled tree of elements, stored in a node arena.
///
/// Nodes are created through `AddRoot`/`AddChild` and addressed by `NodeId`.
/// Ids are never invalidated (nodes cannot be removed; build a new schema
/// instead — the synthetic generator works that way).
class Schema {
 public:
  /// Creates an empty schema with the given document name.
  explicit Schema(std::string name = "") : name_(std::move(name)) {}

  /// \brief Creates the root element. Fails if a root already exists.
  Result<NodeId> AddRoot(std::string element_name, std::string type = "");

  /// \brief Appends a child element under `parent`.
  ///
  /// Fails with `kInvalidArgument` when `parent` is out of range.
  Result<NodeId> AddChild(NodeId parent, std::string element_name,
                          std::string type = "");

  /// Document name (not an element label).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// True when no root has been added yet.
  bool empty() const { return nodes_.empty(); }

  /// Number of elements in the tree.
  size_t size() const { return nodes_.size(); }

  /// Root id; `kInvalidNode` when empty.
  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  /// True iff `id` addresses a node of this schema.
  bool IsValid(NodeId id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes_.size();
  }

  /// Node accessor; `id` must be valid.
  const SchemaNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }

  /// Mutable name/type access (used by the perturbation generator).
  void RenameNode(NodeId id, std::string new_name);
  void SetNodeType(NodeId id, std::string new_type);

  /// All node ids in pre-order (root first).
  std::vector<NodeId> PreOrder() const;

  /// All leaf node ids in pre-order.
  std::vector<NodeId> Leaves() const;

  /// \brief Slash-joined name path from the root, e.g. "library/book/title".
  std::string PathOf(NodeId id) const;

  /// \brief Structural verification: parent/child links consistent, depths
  /// correct, exactly one root, no cycles. Used by tests and after
  /// deserialization.
  Status Validate() const;

  /// Deep structural equality (names, types, shape; document name ignored).
  bool StructurallyEquals(const Schema& other) const;

 private:
  std::string name_;
  std::vector<SchemaNode> nodes_;
};

/// \brief Rebuilds `schema` with node ids assigned in pre-order (document)
/// order — the id assignment any reader reconstructs from a serialized
/// form (XSD, text format). In-memory construction may interleave subtrees,
/// so ids must be canonicalized before mapping keys are persisted next to a
/// serialized repository.
///
/// `old_to_new`, when non-null, receives the id translation
/// (`(*old_to_new)[old_id] == new_id`).
Schema CanonicalizePreOrder(const Schema& schema,
                            std::vector<NodeId>* old_to_new = nullptr);

/// \brief Removes declared simple types from internal nodes.
///
/// XSD cannot express an element that has both child elements and a simple
/// type, so trees built incrementally (where a typed leaf later gains
/// children) must drop those types to remain serializable. The synthetic
/// generator applies this before returning a collection.
void ClearInternalTypes(Schema* schema);

}  // namespace smb::schema
