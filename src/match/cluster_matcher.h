#pragma once

#include <memory>

#include "cluster/element_clustering.h"
#include "match/matcher.h"

/// \file cluster_matcher.h
/// \brief S2-one — clustering-based non-exhaustive matcher ([16]).
///
/// Repository elements are clustered once by name features. At query time,
/// each query element only considers targets inside the `top_m_clusters`
/// clusters whose centroids are most similar to it; the cross-product of
/// those candidate sets is then searched exactly like the exhaustive system
/// (same Δ, same branch-and-bound). Mappings using any element outside the
/// candidate sets are never generated — the non-exhaustive part.
///
/// Because candidate quality degrades gracefully with name similarity, the
/// retained fraction of answers declines smoothly as δ grows — the paper's
/// S2-one profile in Figure 10.

namespace smb::match {

/// \brief Cluster-matcher configuration.
struct ClusterMatcherOptions {
  /// Clusters examined per query element.
  size_t top_m_clusters = 3;
  /// Parameters for building the clustering (when not supplied prebuilt).
  cluster::ElementClusteringOptions clustering;
};

/// \brief Non-exhaustive improvement using element clustering.
class ClusterMatcher : public Matcher {
 public:
  /// \brief Builds the clustering for `repo` and returns a matcher bound to
  /// it. The matcher must only be used with the same repository.
  static Result<ClusterMatcher> Create(const schema::SchemaRepository& repo,
                                       const ClusterMatcherOptions& options,
                                       Rng* rng);

  /// Wraps a prebuilt clustering (shared across matchers/queries).
  ClusterMatcher(std::shared_ptr<const cluster::ElementClustering> clustering,
                 ClusterMatcherOptions options)
      : clustering_(std::move(clustering)), options_(options) {}

  std::string name() const override {
    return "cluster-top" + std::to_string(options_.top_m_clusters);
  }

  /// Each run ranks the clusters for every query element over the whole
  /// clustering, so the engine runs it once over the whole repository.
  bool SupportsSharding() const override { return false; }

  /// Ignores a `CandidateProvider` on `objective`: the clusters are the
  /// candidate scheme. Fails without a clustering.
  Status MatchSchemas(const ObjectiveFunction& objective, size_t first,
                      size_t count, const MatchOptions& options,
                      AnswerSet* out, MatchStats* stats) const override;

  const cluster::ElementClustering& clustering() const { return *clustering_; }

 private:
  std::shared_ptr<const cluster::ElementClustering> clustering_;
  ClusterMatcherOptions options_;
};

}  // namespace smb::match
