#include "schema/schema.h"

/// \file schema.cc
/// \brief Schema tree construction, traversal helpers and path rendering.

namespace smb::schema {

Result<NodeId> Schema::AddRoot(std::string element_name, std::string type) {
  if (!nodes_.empty()) {
    return Status::FailedPrecondition("schema already has a root");
  }
  if (element_name.empty()) {
    return Status::InvalidArgument("element name must not be empty");
  }
  SchemaNode node;
  node.name = std::move(element_name);
  node.type = std::move(type);
  node.parent = kInvalidNode;
  node.depth = 0;
  nodes_.push_back(std::move(node));
  return NodeId{0};
}

Result<NodeId> Schema::AddChild(NodeId parent, std::string element_name,
                                std::string type) {
  if (!IsValid(parent)) {
    return Status::InvalidArgument("invalid parent node id " +
                                   std::to_string(parent));
  }
  if (element_name.empty()) {
    return Status::InvalidArgument("element name must not be empty");
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  SchemaNode node;
  node.name = std::move(element_name);
  node.type = std::move(type);
  node.parent = parent;
  node.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  nodes_.push_back(std::move(node));
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

void Schema::RenameNode(NodeId id, std::string new_name) {
  if (IsValid(id) && !new_name.empty()) {
    nodes_[static_cast<size_t>(id)].name = std::move(new_name);
  }
}

void Schema::SetNodeType(NodeId id, std::string new_type) {
  if (IsValid(id)) nodes_[static_cast<size_t>(id)].type = std::move(new_type);
}

std::vector<NodeId> Schema::PreOrder() const {
  std::vector<NodeId> order;
  if (nodes_.empty()) return order;
  order.reserve(nodes_.size());
  std::vector<NodeId> stack = {root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    const auto& kids = node(id).children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

std::vector<NodeId> Schema::Leaves() const {
  std::vector<NodeId> out;
  for (NodeId id : PreOrder()) {
    if (node(id).children.empty()) out.push_back(id);
  }
  return out;
}

std::string Schema::PathOf(NodeId id) const {
  if (!IsValid(id)) return "";
  std::vector<const std::string*> parts;
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    parts.push_back(&node(cur).name);
  }
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!path.empty()) path += '/';
    path += **it;
  }
  return path;
}

Status Schema::Validate() const {
  if (nodes_.empty()) return Status::OK();
  size_t roots = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const SchemaNode& n = nodes_[i];
    if (n.name.empty()) {
      return Status::Internal("node " + std::to_string(i) + " has empty name");
    }
    if (n.parent == kInvalidNode) {
      ++roots;
      if (n.depth != 0) {
        return Status::Internal("root node has nonzero depth");
      }
    } else {
      if (!IsValid(n.parent)) {
        return Status::Internal("node " + std::to_string(i) +
                                " has invalid parent");
      }
      const SchemaNode& p = nodes_[static_cast<size_t>(n.parent)];
      if (n.depth != p.depth + 1) {
        return Status::Internal("node " + std::to_string(i) +
                                " has inconsistent depth");
      }
      bool linked = false;
      for (NodeId c : p.children) {
        if (static_cast<size_t>(c) == i) {
          linked = true;
          break;
        }
      }
      if (!linked) {
        return Status::Internal("node " + std::to_string(i) +
                                " missing from parent's child list");
      }
    }
    for (NodeId c : n.children) {
      if (!IsValid(c) ||
          nodes_[static_cast<size_t>(c)].parent != static_cast<NodeId>(i)) {
        return Status::Internal("child link of node " + std::to_string(i) +
                                " is inconsistent");
      }
    }
  }
  if (roots != 1) {
    return Status::Internal("schema must have exactly one root, found " +
                            std::to_string(roots));
  }
  // Reachability: pre-order must visit every node exactly once (no cycles,
  // no orphans).
  if (PreOrder().size() != nodes_.size()) {
    return Status::Internal("schema contains unreachable nodes or cycles");
  }
  return Status::OK();
}

Schema CanonicalizePreOrder(const Schema& schema,
                            std::vector<NodeId>* old_to_new) {
  std::vector<NodeId> local_map;
  std::vector<NodeId>* map = old_to_new != nullptr ? old_to_new : &local_map;
  map->assign(schema.size(), kInvalidNode);
  Schema out(schema.name());
  for (NodeId old_id : schema.PreOrder()) {
    const SchemaNode& node = schema.node(old_id);
    NodeId new_id;
    if (node.parent == kInvalidNode) {
      new_id = out.AddRoot(node.name, node.type).value();
    } else {
      // The parent was visited earlier in pre-order, so its new id is known.
      NodeId new_parent = (*map)[static_cast<size_t>(node.parent)];
      new_id = out.AddChild(new_parent, node.name, node.type).value();
    }
    (*map)[static_cast<size_t>(old_id)] = new_id;
  }
  return out;
}

void ClearInternalTypes(Schema* schema) {
  if (schema == nullptr) return;
  for (NodeId id : schema->PreOrder()) {
    if (!schema->node(id).children.empty() &&
        !schema->node(id).type.empty()) {
      schema->SetNodeType(id, "");
    }
  }
}

bool Schema::StructurallyEquals(const Schema& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  auto a_order = PreOrder();
  auto b_order = other.PreOrder();
  if (a_order.size() != b_order.size()) return false;
  for (size_t i = 0; i < a_order.size(); ++i) {
    const SchemaNode& a = node(a_order[i]);
    const SchemaNode& b = other.node(b_order[i]);
    if (a.name != b.name || a.type != b.type ||
        a.children.size() != b.children.size() || a.depth != b.depth) {
      return false;
    }
  }
  return true;
}

}  // namespace smb::schema
