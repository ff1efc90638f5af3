#include "serve/match_service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/timing.h"
#include "eval/answer_set_io.h"
#include "io/csv.h"
#include "match/fingerprint.h"
#include "schema/text_format.h"

/// \file match_service.cc
/// \brief Request execution: effective-target derivation, cache consult,
/// engine run, answer write-out, generation reload.

namespace smb::serve {

namespace {

/// Fingerprints every result-shaping knob of `options` plus the serving
/// generation's repository — the same scheme for every policy, so a shed
/// request (target lowered) hashes exactly like a direct run configured
/// at that target, and a cache entry computed against one repository
/// generation can never answer for another. Thread counts and shard sizes
/// deliberately stay out: they never change answers.
uint64_t FingerprintServiceOptions(const match::MatchOptions& match_options,
                                   const engine::BatchMatchOptions& eopts,
                                   uint64_t repo_fingerprint) {
  const index::AdaptiveCandidatePolicy policy = eopts.policy();
  match::Fingerprinter fp;
  fp.U64(match::FingerprintMatchOptions(match_options))
      .U64(repo_fingerprint)
      .U64(eopts.global_top_k)
      .Double(policy.min_provable_completeness)
      .U64(policy.initial_limit)
      .U64(policy.growth_factor)
      .U64(policy.max_limit);
  return fp.digest();
}

}  // namespace

Result<MatchResponse> MatchService::Execute(const Request& request,
                                            double pressure) {
  const SteadyClock::time_point start = SteadyClock::now();
  // Pin this request's generation once: a concurrent reload swaps the
  // service's pointer but cannot touch the generation we hold.
  const std::shared_ptr<const ServingIndex> index = this->index();
  SMB_ASSIGN_OR_RETURN(std::string query_text,
                       io::ReadTextFile(request.query_path));
  SMB_ASSIGN_OR_RETURN(schema::Schema query,
                       schema::ParseSchemaText(query_text));

  // Derive this request's engine configuration. Under pressure the
  // adaptive completeness target degrades (never below the floor); the
  // degraded target is folded into the options fingerprint below, so the
  // cache can never replay a weaker certificate for a stronger ask.
  engine::BatchMatchOptions eopts = config_.engine_options;
  eopts.prepared_repository =
      index->prepared.has_value() ? &*index->prepared : nullptr;
  eopts.name_row_cache = index->name_rows.get();
  const bool bound_driven = this->bound_driven();
  bool shed = false;
  if (bound_driven) {
    // A per-request `target=` ask replaces the configured base target but
    // stays inside the operator's envelope: clamped to the shed floor,
    // and still subject to the pressure ramp below it.
    LoadShedPolicy policy = config_.shed;
    if (request.target_bound > 0.0) {
      policy.base_target = std::clamp(request.target_bound,
                                      policy.min_target, 1.0);
    }
    const double effective = EffectiveTarget(policy, pressure);
    shed = effective < policy.base_target;
    eopts.adaptive = eopts.policy();
    eopts.adaptive->min_provable_completeness = effective;
  } else if (request.target_bound > 0.0) {
    return Status::FailedPrecondition(
        "per-request target= needs a bound-driven server (start serve "
        "with --target-bound)");
  }

  engine::QueryCacheKey key;
  key.query_fingerprint = match::FingerprintPreparedSchema(
      query, config_.match_options.objective.name);
  key.options_fingerprint = FingerprintServiceOptions(
      config_.match_options, eopts, index->repo_fingerprint);

  std::shared_ptr<const engine::CachedAnswers> cached =
      config_.cache->Lookup(key);
  const bool hit = cached != nullptr;
  engine::BatchMatchStats stats;
  if (!hit) {
    engine::BatchMatchEngine batch(eopts);
    SMB_ASSIGN_OR_RETURN(
        match::AnswerSet answers,
        batch.Run(*index->matcher, query, index->repo,
                  config_.match_options, &stats));
    auto computed = std::make_shared<engine::CachedAnswers>();
    computed->answers = std::move(answers);
    computed->provably_complete_fraction = stats.provably_complete_fraction;
    cached = computed;
  }
  if (!request.out_path.empty()) {
    SMB_RETURN_IF_ERROR(
        eval::WriteAnswerSetFile(request.out_path, cached->answers));
  }
  // Cache only after the write-out succeeded, so a response and its file
  // never disagree about what was served.
  if (!hit) config_.cache->Insert(key, cached);

  MatchResponse response;
  response.query_path = request.query_path;
  response.answers = cached->answers.size();
  response.cache_hit = hit;
  // On a hit the certificate was stored with the entry; a served answer
  // is never silently stripped of its bound.
  response.certified = cached->provably_complete_fraction;
  if (bound_driven) {
    response.has_target = true;
    response.target = eopts.adaptive->min_provable_completeness;
    response.shed = shed;
  }
  response.latency_ms = SecondsSince(start) * 1e3;
  if (!hit) {
    response.has_engine_detail = true;
    response.index_ms = stats.index_seconds * 1e3;
    response.match_ms = stats.match_seconds * 1e3;
    if (bound_driven) {
      response.has_adaptive_detail = true;
      response.budget = stats.adaptive.budget_spent;
      response.rounds = stats.adaptive.rounds;
    }
  }
  return response;
}

Result<std::shared_ptr<const ServingIndex>> MatchService::Reload(
    const std::string& snapshot_path, const std::string& repo_dir) {
  // One reload at a time; Execute is never blocked (it only takes
  // index_mutex_ for the pointer read, and the expensive open happens
  // before the swap).
  MutexLock reload_lock(reload_mutex_);
  const std::string dir =
      repo_dir.empty() ? config_.default_repo_dir : repo_dir;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "reload needs a repository directory (server started without one)");
  }
  if (snapshot_path.empty()) {
    return Status::InvalidArgument("reload needs a snapshot file");
  }
  ServingIndexOptions options = config_.index_options;
  // A reload must swap in exactly the named snapshot: a missing or
  // corrupt file is an error (the old generation keeps serving), never a
  // silent rebuild.
  options.build_if_missing = false;
  options.save_after_build = false;
  const uint64_t next_generation = index()->generation + 1;
  SMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingIndex> next,
      OpenServingIndex(dir, snapshot_path, options, next_generation));
  {
    MutexLock lock(index_mutex_);
    index_ = next;
  }
  return next;
}

}  // namespace smb::serve
