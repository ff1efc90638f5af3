#include "engine/similarity_matrix_pool.h"

#include <algorithm>

#include "common/parallel.h"
#include "sim/prepared_kernel.h"

/// \file similarity_matrix_pool.cc
/// \brief Dense query-by-schema cost matrices, precomputed once on a
/// worker pool and shared read-only by every matcher thread.

namespace smb::engine {

Result<SimilarityMatrixPool> SimilarityMatrixPool::Build(
    const schema::Schema& query, const schema::SchemaRepository& repo,
    const match::ObjectiveOptions& options, size_t num_threads) {
  if (query.empty()) {
    return Status::InvalidArgument(
        "similarity pool needs a non-empty query schema");
  }
  SMB_RETURN_IF_ERROR(query.Validate());

  SimilarityMatrixPool pool;
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  pool.positions_ = preorder.size();
  pool.matrices_.resize(repo.schema_count());
  pool.schema_sizes_.resize(repo.schema_count());

  num_threads = ParallelWorkers(ResolveThreadCount(num_threads),
                                repo.schema_count());

  // Workers claim whole schemas off a shared counter; each matrix is
  // written by exactly one thread, so no locking is needed. Every worker
  // folds/tokenizes/kernel-compiles the query once against its own token
  // interner (ids only need to be consistent *within* a worker — the
  // scores they produce are id-independent), then fills each row through
  // one batched `ScoreMany` call so the query-side state (weights, PEQ
  // bitmask table) loads once per row and the row runs through the
  // SoA/SIMD pipeline. Values are bit-identical to
  // `match::ComputeNodeCost` — the kernel is the same scorer.
  struct FillScratch {
    sim::TokenTable interner;
    std::vector<sim::PreparedName> prepared_query;
    std::vector<sim::PreparedName> prepared_target;
    std::vector<const sim::PreparedName*> target_ptrs;
    std::vector<sim::CutoffScore> row;
  };
  std::vector<FillScratch> scratch(num_threads);
  ParallelFor(num_threads, repo.schema_count(), [&](size_t worker,
                                                    size_t si) {
    FillScratch& w = scratch[worker];
    if (w.prepared_query.empty()) {
      w.prepared_query.reserve(preorder.size());
      for (schema::NodeId id : preorder) {
        w.prepared_query.push_back(
            sim::PrepareName(query.node(id).name, options.name, &w.interner));
      }
    }
    const schema::Schema& s = repo.schema(static_cast<int32_t>(si));
    std::vector<double>& matrix = pool.matrices_[si];
    pool.schema_sizes_[si] = s.size();
    matrix.resize(preorder.size() * s.size());
    w.prepared_target.clear();
    w.prepared_target.reserve(s.size());
    for (size_t node = 0; node < s.size(); ++node) {
      w.prepared_target.push_back(
          sim::PrepareName(s.node(static_cast<schema::NodeId>(node)).name,
                           options.name, &w.interner));
    }
    w.target_ptrs.clear();
    w.target_ptrs.reserve(s.size());
    for (const sim::PreparedName& t : w.prepared_target) {
      w.target_ptrs.push_back(&t);
    }
    w.row.resize(s.size());
    for (size_t pos = 0; pos < preorder.size(); ++pos) {
      const schema::SchemaNode& q = query.node(preorder[pos]);
      sim::BlockScorer scorer(w.prepared_query[pos], options.name);
      scorer.ScoreMany(w.target_ptrs, /*min_score=*/0.0, w.row.data());
      for (size_t node = 0; node < s.size(); ++node) {
        matrix[pos * s.size() + node] = match::ApplyTypePenalty(
            1.0 - w.row[node].score, q,
            s.node(static_cast<schema::NodeId>(node)), options);
      }
    }
  });

  pool.stats_.schema_count = repo.schema_count();
  pool.stats_.threads_used = num_threads;
  for (const auto& matrix : pool.matrices_) {
    pool.stats_.total_entries += matrix.size();
  }
  return pool;
}

}  // namespace smb::engine
