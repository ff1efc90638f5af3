#pragma once

#include <string>

#include "common/rng.h"
#include "schema/repository.h"
#include "schema/schema.h"
#include "synth/generator.h"

/// \file tree_shapes.h
/// \brief Repository schemas of extreme shapes — a deep chain, a wide
/// star, a random tree whose ids are not in pre-order — mixed into a
/// synthetic collection: the trees the edge-cost table and the tree bound
/// are tested over.

namespace smb::testing {

/// A chain of `levels` nodes.
inline schema::Schema Chain(int levels) {
  schema::Schema s("chain");
  schema::NodeId cur = s.AddRoot("n0").value();
  for (int i = 1; i < levels; ++i) {
    cur = s.AddChild(cur, "n" + std::to_string(i)).value();
  }
  return s;
}

/// A root with `leaves` children.
inline schema::Schema Star(int leaves) {
  schema::Schema s("star");
  schema::NodeId root = s.AddRoot("hub").value();
  for (int i = 0; i < leaves; ++i) {
    s.AddChild(root, "leaf" + std::to_string(i)).value();
  }
  return s;
}

/// Each node hangs under a random earlier one, so ids are not pre-order.
inline schema::Schema RandomTree(size_t nodes, uint64_t seed) {
  Rng rng(seed);
  schema::Schema s("random");
  s.AddRoot("r").value();
  for (size_t i = 1; i < nodes; ++i) {
    auto parent = static_cast<schema::NodeId>(rng.UniformIndex(i));
    s.AddChild(parent, "x" + std::to_string(i)).value();
  }
  return s;
}

/// A synthetic collection plus a 40-deep chain (past the XSD reader's depth
/// cut of 16), a 200-leaf star and a 60-node random tree, in one
/// repository.
inline schema::SchemaRepository MakeMixedRepo() {
  synth::SynthOptions options;
  options.num_schemas = 40;
  Rng rng(7);
  schema::SchemaRepository repo =
      synth::GenerateProblem(4, options, &rng).value().repository;
  repo.Add(Chain(40)).value();
  repo.Add(Star(200)).value();
  repo.Add(RandomTree(60, 3)).value();
  return repo;
}

}  // namespace smb::testing
