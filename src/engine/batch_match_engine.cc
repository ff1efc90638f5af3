#include "engine/batch_match_engine.h"

#include <algorithm>
#include <optional>
#include <vector>

/// \file batch_match_engine.cc
/// \brief Sharded batch matching: candidate generation over the repository
/// index, worker pool over schema ranges, deterministic merge.

#include "common/parallel.h"
#include "common/timing.h"

namespace smb::engine {

namespace {

using Clock = SteadyClock;

/// A contiguous range of repository schemas, run by one worker.
struct Shard {
  size_t first_schema = 0;
  size_t schema_count = 0;
};

std::vector<Shard> PartitionSchemas(size_t schema_count, size_t shard_size) {
  std::vector<Shard> shards;
  for (size_t base = 0; base < schema_count; base += shard_size) {
    Shard shard;
    shard.first_schema = base;
    shard.schema_count = std::min(shard_size, schema_count - base);
    shards.push_back(shard);
  }
  return shards;
}

}  // namespace

Result<match::AnswerSet> BatchMatchEngine::Run(
    const match::Matcher& matcher, const schema::Schema& query,
    const schema::SchemaRepository& repo,
    const match::MatchOptions& match_options, BatchMatchStats* stats) const {
  // Stats are defined on *every* exit path: callers that reuse one stats
  // struct across runs never read a stale previous run after a failure.
  if (stats != nullptr) *stats = BatchMatchStats{};
  if (options_.prepared_repository != nullptr &&
      !options_.prepared_repository->BuiltOver(repo)) {
    return Status::InvalidArgument(
        "BatchMatchOptions::prepared_repository was built over a different "
        "repository than the one passed to Run");
  }

  size_t threads = ResolveThreadCount(options_.num_threads);

  // Matchers that refuse sharding (their per-run setup spans the whole
  // repository, e.g. ranking a clustering) get one single-threaded
  // whole-repository run. No candidate lists either — such matchers prune
  // by their own candidate sets and would read only a sliver of them, so
  // the lazy per-instance cache is strictly cheaper. An empty repository
  // takes the same path purely to surface the matcher's own validation
  // error.
  if (!matcher.SupportsSharding() || repo.schema_count() == 0) {
    BatchMatchStats local;
    local.threads_used = 1;
    local.shard_count = repo.schema_count() == 0 ? 0 : 1;
    local.fell_back_to_single_run = !matcher.SupportsSharding();
    Clock::time_point start = Clock::now();
    Result<match::AnswerSet> answers =
        matcher.Match(query, repo, match_options, &local.match);
    local.match_seconds = SecondsSince(start);
    if (stats != nullptr) *stats = local;
    if (!answers.ok()) return answers.status();
    if (options_.global_top_k > 0) {
      answers = answers->TopN(options_.global_top_k);
    }
    return answers;
  }

  BatchMatchStats local;
  // Validated once for the whole run; every shard reads the same inputs.
  if (Status valid = match::Matcher::ValidateInputs(query, repo,
                                                    match_options);
      !valid.ok()) {
    if (stats != nullptr) *stats = local;
    return valid;
  }

  size_t shard_size = options_.shard_size;
  if (shard_size == 0) {
    // Several shards per thread so a slow shard doesn't idle the others;
    // at least one schema per shard.
    shard_size = std::max<size_t>(1, repo.schema_count() / (threads * 4));
  }
  std::vector<Shard> shards = PartitionSchemas(repo.schema_count(),
                                               shard_size);

  local.shard_count = shards.size();

  // Phase 1: candidate lists from the query-independent repository index,
  // reused when the caller prebuilt it. Each (query element, schema) cell
  // grows until its skip-bound certifies the completeness target at this
  // run's Δ threshold — `adaptive`'s target, or, for a run without a
  // policy, 1.0 with no cap, whose lists hold every target that can reach
  // an answer (the exhaustive run). Target 0 keeps the top C of every cell.
  // Where the rounds are planned, a schema with no mapping within Δ gets
  // empty lists, so phase 2 spends nothing on it.
  const index::PreparedRepository* prepared = options_.prepared_repository;
  std::optional<index::PreparedRepository> owned_prepared;
  if (prepared == nullptr) {
    Clock::time_point start = Clock::now();
    auto built =
        index::PreparedRepository::Build(repo, match_options.objective.name);
    if (!built.ok()) {
      if (stats != nullptr) *stats = local;
      return built.status();
    }
    owned_prepared = std::move(built).value();
    prepared = &*owned_prepared;
    local.precompute_seconds = SecondsSince(start);
  }
  Clock::time_point index_start = Clock::now();
  index::CandidateGenerator generator(prepared, match_options.objective);
  // Generation splits cells, not shards, so it gets the full thread count
  // even when shards are few.
  generator.set_num_threads(threads);
  generator.set_name_row_cache(options_.name_row_cache);
  Result<index::QueryCandidates> generated = generator.GenerateForMatching(
      query, options_.policy(), match_options.delta_threshold,
      &local.adaptive);
  if (!generated.ok()) {
    if (stats != nullptr) *stats = local;
    return generated.status();
  }
  const index::QueryCandidates candidates = std::move(generated).value();
  local.index_seconds = SecondsSince(index_start);
  local.match.candidates_generated = candidates.candidates_generated();
  local.match.candidates_skipped = candidates.candidates_skipped();
  local.provably_complete_fraction =
      candidates.ProvablyCompleteFraction(match_options.delta_threshold);

  threads = std::min(threads, shards.size());
  local.threads_used = threads;

  // Per-shard budget accounting: how many candidate entries the index
  // handed to each shard.
  local.shard_candidates_generated.assign(shards.size(), 0);
  for (size_t i = 0; i < shards.size(); ++i) {
    for (size_t pos = 0; pos < candidates.positions(); ++pos) {
      for (size_t s = 0; s < shards[i].schema_count; ++s) {
        local.shard_candidates_generated[i] += candidates.CandidatesOffered(
            pos, static_cast<int32_t>(shards[i].first_schema + s));
      }
    }
  }

  // Phase 2: workers claim shards off a shared counter and run each range
  // against one objective over the whole repository. The candidate lists
  // attached to it answer every cost the matchers read, so its lazy cache
  // is never written and the workers share it read-only. Every slot below
  // is written by exactly one worker, so no locking is needed.
  const match::ObjectiveFunction objective(&query, &repo,
                                           match_options.objective,
                                           &candidates);
  std::vector<Status> shard_status(shards.size());
  std::vector<match::AnswerSet> shard_answers(shards.size());
  std::vector<match::MatchStats> shard_stats(shards.size());
  Clock::time_point match_start = Clock::now();
  ParallelFor(threads, shards.size(), [&](size_t /*worker*/, size_t i) {
    shard_status[i] = matcher.MatchSchemas(
        objective, shards[i].first_schema, shards[i].schema_count,
        match_options, &shard_answers[i], &shard_stats[i]);
    shard_answers[i].Finalize();
  });
  local.match_seconds = SecondsSince(match_start);

  // Merge: first error (by shard order) wins; otherwise the answers already
  // carry repository-wide schema indices and move into one ranking.
  match::AnswerSet merged;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!shard_status[i].ok()) {
      if (stats != nullptr) *stats = local;
      return shard_status[i].WithContext("shard " + std::to_string(i) +
                                         " of " +
                                         std::to_string(shards.size()));
    }
    local.match += shard_stats[i];
    merged.Append(std::move(shard_answers[i]));
  }
  merged.Finalize();
  if (options_.global_top_k > 0) {
    merged = merged.TopN(options_.global_top_k);
  }
  if (stats != nullptr) *stats = local;
  return merged;
}

}  // namespace smb::engine
