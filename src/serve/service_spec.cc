#include "serve/service_spec.h"

#include <utility>

#include "common/strings.h"
#include "sim/synonyms.h"

/// \file service_spec.cc
/// \brief One parse for every service front end, and BuildMatchService.

namespace smb::serve {

namespace {

const sim::SynonymTable& BuiltinSynonyms() {
  static const sim::SynonymTable kSynonyms = sim::SynonymTable::Builtin();
  return kSynonyms;
}

}  // namespace

ServiceSpec::ServiceSpec() {
  match_options.delta_threshold = 0.25;
  match_options.objective.name.synonyms = &BuiltinSynonyms();
  engine_options.adaptive = index::AdaptiveCandidatePolicy{
      .min_provable_completeness = 0.0, .initial_limit = 16};
}

ServingIndexOptions ServiceSpec::index_options() const {
  ServingIndexOptions options;
  options.matcher_kind = matcher_kind;
  options.factory_options = factory_options;
  options.name_options = match_options.objective.name;
  options.num_threads = engine_options.num_threads;
  options.build_if_missing = true;
  options.save_after_build = true;
  return options;
}

const std::vector<SettingName>& ServiceSettingNames() {
  static const std::vector<SettingName> kNames = {
      {"delta", "delta"},           {"matcher", "matcher"},
      {"beam", nullptr},            {"topm", nullptr},
      {"k", nullptr},               {"seed", nullptr},
      {"threads", "engine_threads"}, {"top", "top_k"},
      {"candidates", "candidates"},
      {"cache-size", "cache_capacity"},
      {"target-bound", "target_bound"},
      {"initial-candidates", nullptr}, {"max-candidates", nullptr},
      {"min-target-bound", "min_target"},
  };
  return kNames;
}

Result<ServiceSpec> ParseServiceSpec(const CommandLine& cl, ServiceSpec spec) {
  match::MatcherFactoryOptions& factory = spec.factory_options;
  engine::BatchMatchOptions& engine = spec.engine_options;
  spec.matcher_kind = cl.Get("matcher", spec.matcher_kind);
  SMB_ASSIGN_OR_RETURN(
      spec.match_options.delta_threshold,
      cl.GetDouble("delta", spec.match_options.delta_threshold));
  SMB_ASSIGN_OR_RETURN(factory.beam_width,
                       cl.GetUint("beam", factory.beam_width));
  SMB_ASSIGN_OR_RETURN(factory.top_m_clusters,
                       cl.GetUint("topm", factory.top_m_clusters));
  SMB_ASSIGN_OR_RETURN(factory.k_per_schema,
                       cl.GetUint("k", factory.k_per_schema));
  SMB_ASSIGN_OR_RETURN(factory.cluster_seed,
                       cl.GetUint("seed", factory.cluster_seed));
  SMB_ASSIGN_OR_RETURN(engine.num_threads,
                       cl.GetUint("threads", engine.num_threads));
  SMB_ASSIGN_OR_RETURN(engine.global_top_k,
                       cl.GetUint("top", engine.global_top_k));
  if (cl.Has("candidates")) {
    // Fixed-C is the target-0 policy; C = 0 asks for no budget at all.
    SMB_ASSIGN_OR_RETURN(const uint64_t limit, cl.GetUint("candidates", 0));
    engine.adaptive.reset();
    if (limit > 0) {
      engine.adaptive = index::AdaptiveCandidatePolicy{
          .min_provable_completeness = 0.0, .initial_limit = limit};
    }
  }
  SMB_ASSIGN_OR_RETURN(spec.cache_capacity,
                       cl.GetUint("cache-size", spec.cache_capacity));

  if (!cl.Has("target-bound")) {
    for (const char* flag :
         {"initial-candidates", "max-candidates", "min-target-bound"}) {
      if (cl.Has(flag)) {
        return Status::InvalidArgument(
            "--" + std::string(flag) +
            " only applies to the bound-driven mode; add --target-bound=B");
      }
    }
    return spec;
  }
  if (cl.Has("candidates")) {
    return Status::InvalidArgument(
        "--candidates (fixed budget) and --target-bound (bound-driven "
        "budget) are mutually exclusive");
  }
  index::AdaptiveCandidatePolicy policy;
  SMB_ASSIGN_OR_RETURN(policy.min_provable_completeness,
                       cl.GetDouble("target-bound", 1.0));
  SMB_ASSIGN_OR_RETURN(policy.initial_limit,
                       cl.GetUint("initial-candidates", policy.initial_limit));
  SMB_ASSIGN_OR_RETURN(policy.max_limit,
                       cl.GetUint("max-candidates", policy.max_limit));
  engine.adaptive = policy;
  spec.shed.base_target = policy.min_provable_completeness;
  SMB_ASSIGN_OR_RETURN(spec.shed.min_target,
                       cl.GetDouble("min-target-bound", spec.shed.base_target));
  SMB_RETURN_IF_ERROR(ValidateLoadShedPolicy(spec.shed));
  return spec;
}

Result<ServiceSpec> ParseServiceSpec(const eval::ExperimentSpec& experiment) {
  // The experiment's service keys, spelled as the flags they stand for.
  std::vector<std::string> args = {"batch"};
  for (const SettingName& name : ServiceSettingNames()) {
    if (name.key == nullptr) continue;
    const auto it = experiment.params.find(name.key);
    if (it != experiment.params.end()) {
      args.push_back("--" + std::string(name.flag) + "=" + it->second);
    }
  }
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  SMB_ASSIGN_OR_RETURN(
      const CommandLine cl,
      CommandLine::Parse(static_cast<int>(argv.size()), argv.data()));
  auto spec = ParseServiceSpec(cl);
  if (spec.ok()) return spec;
  // Errors name the batch keys. A message names only flags set above or
  // `--target-bound`, so `--top` never meets the command-line-only `--topm`.
  std::string message = ReplaceAll(spec.status().message(), "flag --", "--");
  for (const SettingName& name : ServiceSettingNames()) {
    if (name.key != nullptr) {
      message = ReplaceAll(message, "--" + std::string(name.flag), name.key);
    }
  }
  return Status::InvalidArgument("experiment '" + experiment.name + "': " +
                                 message);
}

BuiltMatchService BuildMatchService(const ServiceSpec& spec,
                                    std::shared_ptr<const ServingIndex> index,
                                    std::string default_repo_dir) {
  BuiltMatchService built;
  built.cache =
      std::make_unique<engine::QueryResultCache>(spec.cache_capacity);
  MatchServiceConfig config;
  config.match_options = spec.match_options;
  config.engine_options = spec.engine_options;
  config.cache = built.cache.get();
  config.shed = spec.shed;
  config.index_options = spec.index_options();
  config.default_repo_dir = std::move(default_repo_dir);
  built.service =
      std::make_unique<MatchService>(std::move(index), std::move(config));
  return built;
}

}  // namespace smb::serve
