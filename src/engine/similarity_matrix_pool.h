#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "schema/schema.h"

/// \file similarity_matrix_pool.h
/// \brief Shared, precomputed query×repository similarity matrices.
///
/// The name-distance computation dominates matching cost, and every matcher
/// evaluates the same (query element, repository element) pairs. Instead of
/// each `ObjectiveFunction` instance filling a private lazy cache — single
/// threaded, once per matcher run — the pool computes the dense node-cost
/// matrix of every repository schema exactly once (optionally on a worker
/// pool) and hands out immutable views. All matchers and all batch-engine
/// worker threads then share the same read-only data. The values are
/// produced by `match::ComputeNodeCost`, so they are bit-identical to what
/// the lazy path computes — sharing the pool never changes a Δ.

namespace smb::engine {

/// \brief Size/shape of a built pool (for reports and benches).
struct SimilarityPoolStats {
  size_t schema_count = 0;
  /// Total matrix entries across all schemas (= Σ m·|schema|).
  size_t total_entries = 0;
  /// Worker threads that participated in the precompute.
  size_t threads_used = 1;
};

/// \brief Dense per-schema node-cost matrices, computed once, shared by all
/// matchers. Immutable after Build, safe for concurrent reads.
class SimilarityMatrixPool : public match::NodeCostProvider {
 public:
  /// \brief Precomputes the cost matrix of every repository schema.
  ///
  /// `num_threads` workers split the schemas (0 ⇒ hardware concurrency).
  /// `query` is traversed in pre-order, matching
  /// `ObjectiveFunction::query_preorder`. The inputs may be destroyed after
  /// Build returns; the pool owns its matrices.
  static Result<SimilarityMatrixPool> Build(
      const schema::Schema& query, const schema::SchemaRepository& repo,
      const match::ObjectiveOptions& options, size_t num_threads = 1);

  /// Row-major matrix for `schema_index`:
  /// `matrix[pos * schema_size + node]`. Never nullptr for a valid index.
  const double* NodeCostMatrix(int32_t schema_index) const override {
    return matrices_[static_cast<size_t>(schema_index)].data();
  }

  /// Convenience accessor mirroring `ObjectiveFunction::NodeCost`.
  double cost(size_t pos, int32_t schema_index, schema::NodeId target) const {
    return matrices_[static_cast<size_t>(schema_index)]
                    [pos * schema_sizes_[static_cast<size_t>(schema_index)] +
                     static_cast<size_t>(target)];
  }

  /// Number of schemas the pool covers.
  size_t schema_count() const { return matrices_.size(); }

  /// Query pre-order positions covered (rows per matrix).
  size_t query_positions() const { return positions_; }

  const SimilarityPoolStats& stats() const { return stats_; }

 private:
  SimilarityMatrixPool() = default;

  std::vector<std::vector<double>> matrices_;
  std::vector<size_t> schema_sizes_;
  size_t positions_ = 0;
  SimilarityPoolStats stats_;
};

}  // namespace smb::engine
