#include "serve/service_spec.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "match/fingerprint.h"
#include "serve/serving_index.h"
#include "../testing/fixtures.h"

/// \file service_spec_test.cc
/// \brief One parse for every front end: each CLI flag and its batch key
/// set the same field, invalid combinations fail the same way from both
/// sources, and BuildMatchService wires the spec into the service unchanged.

namespace smb::serve {
namespace {

/// `matchbounds serve <flags...>` as the CLI sees it.
CommandLine Cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"matchbounds", "serve"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return CommandLine::Parse(static_cast<int>(argv.size()), argv.data())
      .value();
}

/// One batch experiment line's parameters.
eval::ExperimentSpec Batch(
    const std::vector<std::pair<std::string, std::string>>& params) {
  eval::ExperimentSpec spec;
  spec.name = "exp";
  for (const auto& [key, value] : params) spec.params[key] = value;
  return spec;
}

/// Every field of a spec, printed — two specs are field-for-field equal
/// iff their descriptions are.
std::string Describe(const ServiceSpec& spec) {
  std::ostringstream out;
  const match::MatcherFactoryOptions& f = spec.factory_options;
  const engine::BatchMatchOptions& e = spec.engine_options;
  out << match::FingerprintMatchOptions(spec.match_options) << " "
      << spec.match_options.objective.name.synonyms << " "
      << spec.matcher_kind << " " << f.beam_width << " " << f.top_m_clusters
      << " " << f.k_per_schema << " " << f.max_frontier << " "
      << f.cluster_seed << " | " << e.num_threads << " " << e.shard_size
      << " " << e.global_top_k << " " << e.candidate_limit << " "
      << e.share_similarity_matrices << " " << e.block_max_postings << " "
      << e.prepared_repository << " " << e.adaptive.has_value();
  if (e.adaptive.has_value()) {
    out << " " << e.adaptive->min_provable_completeness << " "
        << e.adaptive->initial_limit << " " << e.adaptive->growth_factor
        << " " << e.adaptive->max_limit;
  }
  out << " | " << spec.cache_capacity << " " << spec.shed.base_target << " "
      << spec.shed.min_target << " " << spec.shed.shed_start_pressure << " "
      << spec.shed.target_step;
  return out.str();
}

void ExpectSameSpec(const ServiceSpec& a, const ServiceSpec& b) {
  EXPECT_EQ(Describe(a), Describe(b));
}

TEST(ServiceSpecTest, DefaultsAreTheServeDefaults) {
  const ServiceSpec spec = ParseServiceSpec(Cli({})).value();
  EXPECT_EQ(spec.match_options.delta_threshold, 0.25);
  EXPECT_NE(spec.match_options.objective.name.synonyms, nullptr);
  EXPECT_EQ(spec.matcher_kind, "exhaustive");
  EXPECT_EQ(spec.engine_options.candidate_limit, 16u);
  EXPECT_EQ(spec.engine_options.num_threads, 1u);
  EXPECT_FALSE(spec.bound_driven());
  EXPECT_EQ(spec.cache_capacity, 64u);
  EXPECT_EQ(spec.shed.base_target, 1.0);
  EXPECT_EQ(spec.shed.min_target, 1.0);
  ExpectSameSpec(spec, ParseServiceSpec(Batch({})).value());
}

TEST(ServiceSpecTest, EveryFlagAndItsBatchKeySetTheSameField) {
  // A non-default value per setting; min_target needs the bound-driven
  // mode, which cannot be combined with an explicit candidates.
  const std::vector<std::pair<std::string, std::string>> values = {
      {"delta", "0.3"},          {"matcher", "beam"},
      {"threads", "3"},          {"top", "7"},
      {"candidates", "5"},       {"cache-size", "9"},
      {"target-bound", "0.85"},  {"min-target-bound", "0.6"},
  };
  size_t keyed = 0;
  for (const SettingName& name : ServiceSettingNames()) {
    if (name.key == nullptr) continue;
    ++keyed;
    std::string value;
    for (const auto& [flag, v] : values) {
      if (flag == name.flag) value = v;
    }
    ASSERT_FALSE(value.empty()) << "no test value for --" << name.flag;
    std::vector<std::string> flags = {"--" + std::string(name.flag) + "=" +
                                      value};
    std::vector<std::pair<std::string, std::string>> params = {
        {name.key, value}};
    if (std::string(name.flag) == "min-target-bound") {
      flags.push_back("--target-bound=0.9");
      params.push_back({"target_bound", "0.9"});
    }
    SCOPED_TRACE(name.flag);
    auto from_cli = ParseServiceSpec(Cli(flags));
    auto from_batch = ParseServiceSpec(Batch(params));
    ASSERT_TRUE(from_cli.ok()) << from_cli.status();
    ASSERT_TRUE(from_batch.ok()) << from_batch.status();
    ExpectSameSpec(*from_cli, *from_batch);
    EXPECT_NE(Describe(*from_cli), Describe(ServiceSpec()))
        << "the setting changed nothing";
  }
  EXPECT_EQ(keyed, values.size());
}

TEST(ServiceSpecTest, SameSettingsFromEitherSourceGiveEqualSpecs) {
  auto from_cli = ParseServiceSpec(
      Cli({"--delta=0.2", "--matcher=topk", "--target-bound=0.85",
           "--min-target-bound=0.6", "--threads=2", "--top=10",
           "--cache-size=32"}));
  auto from_batch = ParseServiceSpec(
      Batch({{"delta", "0.2"},
             {"matcher", "topk"},
             {"target_bound", "0.85"},
             {"min_target", "0.6"},
             {"engine_threads", "2"},
             {"top_k", "10"},
             {"cache_capacity", "32"}}));
  ASSERT_TRUE(from_cli.ok()) << from_cli.status();
  ASSERT_TRUE(from_batch.ok()) << from_batch.status();
  ExpectSameSpec(*from_cli, *from_batch);
  EXPECT_TRUE(from_cli->bound_driven());
  EXPECT_EQ(from_cli->engine_options.candidate_limit, 0u);
  EXPECT_EQ(from_cli->engine_options.adaptive->min_provable_completeness,
            0.85);
  EXPECT_EQ(from_cli->shed.base_target, 0.85);
  EXPECT_EQ(from_cli->shed.min_target, 0.6);
}

TEST(ServiceSpecTest, InvalidCombinationsFailTheSameWayFromBothSources) {
  struct Case {
    const char* what;
    std::vector<std::string> flags;
    std::vector<std::pair<std::string, std::string>> params;
    const char* cli_names;    // the setting as the CLI spells it
    const char* batch_names;  // ... and as a batch file does
  };
  const std::vector<Case> cases = {
      // `loadtest --trace` used to accept this silently.
      {"floor without a target", {"--min-target-bound=0.5"},
       {{"min_target", "0.5"}}, "--min-target-bound", "min_target"},
      // A batch used to ignore the candidates of a policy=target run.
      {"fixed and bound-driven budgets",
       {"--candidates=8", "--target-bound=0.9"},
       {{"candidates", "8"}, {"target_bound", "0.9"}}, "--candidates",
       "candidates"},
      {"floor above the target",
       {"--target-bound=0.8", "--min-target-bound=0.9"},
       {{"target_bound", "0.8"}, {"min_target", "0.9"}}, "", ""},
      {"target out of range", {"--target-bound=1.5"},
       {{"target_bound", "1.5"}}, "", ""},
      {"malformed number", {"--delta=abc"}, {{"delta", "abc"}}, "--delta",
       "delta"},
      {"negative integer", {"--top=-3"}, {{"top_k", "-3"}}, "--top",
       "top_k"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto from_cli = ParseServiceSpec(Cli(c.flags));
    auto from_batch = ParseServiceSpec(Batch(c.params));
    ASSERT_FALSE(from_cli.ok());
    ASSERT_FALSE(from_batch.ok());
    EXPECT_EQ(from_cli.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(from_batch.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(from_cli.status().message().find(c.cli_names),
              std::string::npos)
        << from_cli.status();
    EXPECT_NE(from_batch.status().message().find(c.batch_names),
              std::string::npos)
        << from_batch.status();
    EXPECT_NE(from_batch.status().message().find("experiment 'exp'"),
              std::string::npos)
        << from_batch.status();
  }
  // Command-line-only growth knobs need the bound-driven mode too.
  for (const char* flag :
       {"--initial-candidates=8", "--max-candidates=64"}) {
    auto spec = ParseServiceSpec(Cli({flag}));
    ASSERT_FALSE(spec.ok()) << flag;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServiceSpecTest, CommandLineOnlyKnobsReachTheFactoryAndThePolicy) {
  auto spec = ParseServiceSpec(
      Cli({"--beam=3", "--topm=2", "--k=5", "--seed=9", "--target-bound=0.9",
           "--initial-candidates=8", "--max-candidates=64"}));
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->factory_options.beam_width, 3u);
  EXPECT_EQ(spec->factory_options.top_m_clusters, 2u);
  EXPECT_EQ(spec->factory_options.k_per_schema, 5u);
  EXPECT_EQ(spec->factory_options.cluster_seed, 9u);
  EXPECT_EQ(spec->engine_options.adaptive->initial_limit, 8u);
  EXPECT_EQ(spec->engine_options.adaptive->max_limit, 64u);
}

TEST(ServiceSpecTest, ShardSizeIsNotAServiceSetting) {
  // Services keep the engine's heuristic shard size; only `match` reads
  // `--shard-size`.
  auto spec = ParseServiceSpec(Cli({"--threads=2", "--shard-size=4"}));
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->engine_options.shard_size, 0u);
}

TEST(ServiceSpecTest, DefaultsParameterKeepsAbsentSettings) {
  ServiceSpec dense;
  dense.engine_options.candidate_limit = 0;
  EXPECT_EQ(ParseServiceSpec(Cli({}), dense)->engine_options.candidate_limit,
            0u);
  EXPECT_EQ(ParseServiceSpec(Cli({"--candidates=8"}), dense)
                ->engine_options.candidate_limit,
            8u);
}

TEST(ServiceSpecTest, IndexOptionsCarryStartupSemanticsAndTheScorer) {
  const ServiceSpec spec =
      ParseServiceSpec(Cli({"--matcher=beam", "--beam=3", "--threads=2"}))
          .value();
  const ServingIndexOptions options = spec.index_options();
  EXPECT_EQ(options.matcher_kind, "beam");
  EXPECT_EQ(options.factory_options.beam_width, 3u);
  EXPECT_EQ(options.num_threads, 2u);
  EXPECT_EQ(options.name_options.synonyms,
            spec.match_options.objective.name.synonyms);
  // Every front end that opens an index builds a missing snapshot and
  // saves it (in-process `loadtest --trace` used not to save).
  EXPECT_TRUE(options.build_if_missing);
  EXPECT_TRUE(options.save_after_build);
}

TEST(ServiceSpecTest, BuildMatchServiceWiresTheSpecIntoTheService) {
  const ServiceSpec spec =
      ParseServiceSpec(Cli({"--target-bound=0.9", "--cache-size=7"})).value();
  schema::SchemaRepository repo;
  ASSERT_TRUE(repo.Add(smb::testing::MakeHostWithExactCopy()).ok());
  auto index = BuildServingIndex(std::move(repo), spec.index_options(),
                                 /*generation=*/1);
  ASSERT_TRUE(index.ok()) << index.status();
  BuiltMatchService built = BuildMatchService(spec, *index);
  ASSERT_NE(built.cache, nullptr);
  ASSERT_NE(built.service, nullptr);
  EXPECT_EQ(built.cache->capacity(), 7u);
  EXPECT_EQ(built.service->cache(), built.cache.get());
  EXPECT_TRUE(built.service->adaptive());
  EXPECT_EQ(built.service->index().get(), index->get());
  // No default repository directory: a bare reload is refused.
  auto reload = built.service->Reload("/nonexistent.snap", "");
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace smb::serve
