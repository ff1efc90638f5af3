#pragma once

#include "schema/schema.h"

/// \file tree_walk.h
/// \brief Parent-pointer walks over a `schema::Schema`: the reference the
/// repository's relation codes (schema/repository.h) are tested against.

namespace smb::testing {

/// Number of edges between two nodes of `s`; -1 if either id is invalid.
inline int TreeDistance(const schema::Schema& s, schema::NodeId a,
                        schema::NodeId b) {
  if (!s.IsValid(a) || !s.IsValid(b)) return -1;
  // Walk the deeper node up until depths match, then walk both up.
  int dist = 0;
  while (s.node(a).depth > s.node(b).depth) {
    a = s.node(a).parent;
    ++dist;
  }
  while (s.node(b).depth > s.node(a).depth) {
    b = s.node(b).parent;
    ++dist;
  }
  while (a != b) {
    a = s.node(a).parent;
    b = s.node(b).parent;
    dist += 2;
  }
  return dist;
}

/// True iff `ancestor` lies on the root path of `descendant` in `s` (a node
/// is its own ancestor).
inline bool IsAncestor(const schema::Schema& s, schema::NodeId ancestor,
                       schema::NodeId descendant) {
  if (!s.IsValid(ancestor) || !s.IsValid(descendant)) return false;
  for (schema::NodeId cur = descendant; cur != schema::kInvalidNode;
       cur = s.node(cur).parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

}  // namespace smb::testing
