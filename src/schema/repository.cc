#include "schema/repository.h"

#include <algorithm>
#include <string>

/// \file repository.cc
/// \brief Repository loading: directory scan, per-file parse dispatch, id
/// assignment.

namespace smb::schema {

namespace {

/// Appends the n × n relation codes of `schema` to `out` and returns their
/// largest. The fill reads flat copies of the parent and depth fields, not
/// `SchemaNode`s, and derives each row from the row of the node's parent
/// (every node's id is larger than its parent's), so it costs O(n²).
RelationCode AppendRelationCodes(const Schema& schema,
                                 std::vector<RelationCode>* out) {
  const size_t n = schema.size();
  std::vector<size_t> parent(n, 0);  // the root's entry is never read
  std::vector<int> depth(n);
  for (size_t i = 0; i < n; ++i) {
    const SchemaNode& node = schema.node(static_cast<NodeId>(i));
    if (node.parent != kInvalidNode) {
      parent[i] = static_cast<size_t>(node.parent);
    }
    depth[i] = node.depth;
  }
  const size_t base = out->size();
  out->resize(base + n * n);
  RelationCode* codes = out->data() + base;
  RelationCode max_code = 0;
  for (size_t p = 0; p < n; ++p) {
    RelationCode* row = codes + p * n;
    const RelationCode* parent_row = codes + parent[p] * n;
    for (size_t c = 0; c < n; ++c) {
      RelationCode code;
      if (c == p) {
        code = MakeRelationCode(RelationKind::kSame, 0);
      } else if (c > p && (row[parent[c]] & 2) == 0) {
        // c's parent is p or below it: kind bit 1 clear means kSame or
        // kAncestor. (Smaller ids than p are never in p's subtree.)
        code = MakeRelationCode(RelationKind::kAncestor, depth[c] - depth[p]);
      } else {
        // c lies outside p's subtree, so the path from p to c runs through
        // p's parent: one edge longer than from the parent (+4 adds 1 to
        // the distance), and setting bit 1 of the kind turns the parent's
        // kSame/kAncestor into kInverted/kUnrelated.
        code = static_cast<RelationCode>((parent_row[c] + 4) | 2);
      }
      row[c] = code;
      max_code = std::max(max_code, code);
    }
  }
  return max_code;
}

}  // namespace

Result<int32_t> SchemaRepository::Add(Schema schema) {
  SMB_RETURN_IF_ERROR(schema.Validate());
  if (schema.empty()) {
    return Status::InvalidArgument("cannot add an empty schema");
  }
  if (schema.size() > kMaxSchemaElements) {
    return Status::InvalidArgument(
        "schema '" + schema.name() + "' has " + std::to_string(schema.size()) +
        " elements; a repository schema holds at most " +
        std::to_string(kMaxSchemaElements));
  }
  const size_t offset = relation_codes_.size();
  max_relation_code_ = std::max(
      max_relation_code_, AppendRelationCodes(schema, &relation_codes_));
  code_offsets_.push_back(offset);
  total_elements_ += schema.size();
  schemas_.push_back(std::move(schema));
  return static_cast<int32_t>(schemas_.size() - 1);
}

std::vector<ElementRef> SchemaRepository::AllElements() const {
  std::vector<ElementRef> out;
  out.reserve(total_elements_);
  for (size_t s = 0; s < schemas_.size(); ++s) {
    for (NodeId id : schemas_[s].PreOrder()) {
      out.push_back(ElementRef{static_cast<int32_t>(s), id});
    }
  }
  return out;
}

int32_t SchemaRepository::FindByName(const std::string& name) const {
  for (size_t s = 0; s < schemas_.size(); ++s) {
    if (schemas_[s].name() == name) return static_cast<int32_t>(s);
  }
  return -1;
}

}  // namespace smb::schema
