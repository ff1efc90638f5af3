#include "harness/batch_runner.h"

#include <filesystem>
#include <memory>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "common/table.h"
#include "common/timing.h"
#include "eval/trace.h"
#include "harness/trace_executor.h"
#include "io/csv.h"
#include "schema/text_format.h"
#include "serve/service_spec.h"
#include "synth/stream.h"

/// \file batch_runner.cc
/// \brief Experiment execution: stream repo -> queries -> trace ->
/// in-process replay, with CSV/JSON emission.

namespace smb::harness {

namespace {

namespace fs = std::filesystem;

/// The workload settings (everything but the service, whose settings come
/// from serve::ServiceSettingNames()): `loadtest` flag and batch key.
constexpr serve::SettingName kWorkloadSettings[] = {
    // Repository synthesis, query derivation, trace generation, replay
    // pacing (plus the `--open-loop` switch, `open_loop=1`), shared seed.
    {"schemas", "repo_schemas"},     {"vocab", "vocab_size"},
    {"zipf-name", "zipf_name"},      {"min-elements", "min_elements"},
    {"max-elements", "max_elements"},
    {"typed-fraction", "typed_leaf_fraction"},
    {"queries", "queries"},          {"query-elements", "query_elements"},
    {"requests", "requests"},        {"zipf-query", "zipf_query"},
    {"rate-qps", "rate_qps"},        {"deadline-ms", "deadline_ms"},
    {"target-mix", "target_mix"},    {"speed", "speed"},
    {"replay-threads", "threads"},   {"seed", "seed"},
};

/// Anything a spec names outside both tables is an error at batch start,
/// so a typo fails before the first repository builds.
Status CheckKnownKeys(const eval::ExperimentSpec& spec) {
  for (const auto& [key, value] : spec.params) {
    bool known = key == "open_loop";
    for (const serve::SettingName& name : kWorkloadSettings) {
      known = known || key == name.key;
    }
    for (const serve::SettingName& name :
         serve::ServiceSettingNames()) {
      known = known || (name.key != nullptr && key == name.key);
    }
    if (!known) {
      return Status::InvalidArgument("experiment '" + spec.name +
                                     "': unknown key '" + key + "'");
    }
  }
  return Status::OK();
}

Result<std::vector<double>> ParseTargetMix(const eval::ExperimentSpec& spec) {
  const std::string raw = eval::GetParam(spec, "target_mix", "");
  std::vector<double> mix;
  if (raw.empty()) return mix;
  for (const std::string& piece : Split(raw, ',')) {
    char* end = nullptr;
    const double bound = std::strtod(piece.c_str(), &end);
    if (end == piece.c_str() || *end != '\0') {
      return Status::InvalidArgument("experiment '" + spec.name +
                                     "': bad target_mix entry '" + piece +
                                     "'");
    }
    mix.push_back(bound);
  }
  return mix;
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

/// Runs one experiment end-to-end. `exp_dir` is its private scratch
/// directory (already created).
Result<ExperimentResult> RunExperiment(const eval::ExperimentSpec& spec,
                                       const std::string& exp_dir,
                                       const BatchRunOptions& run_options) {
  // Resolve every parameter up front so a bad value fails before the
  // (possibly minutes-long) repository build starts.
  SMB_ASSIGN_OR_RETURN(uint64_t seed, GetParamUint(spec, "seed", 1));
  synth::StreamOptions stream_options;
  SMB_ASSIGN_OR_RETURN(stream_options.num_schemas,
                       GetParamUint(spec, "repo_schemas", 2000));
  SMB_ASSIGN_OR_RETURN(uint64_t vocab, GetParamUint(spec, "vocab_size", 512));
  SMB_ASSIGN_OR_RETURN(uint64_t min_elems,
                       GetParamUint(spec, "min_elements", 6));
  SMB_ASSIGN_OR_RETURN(uint64_t max_elems,
                       GetParamUint(spec, "max_elements", 14));
  SMB_ASSIGN_OR_RETURN(stream_options.zipf_exponent,
                       GetParamDouble(spec, "zipf_name", 1.1));
  SMB_ASSIGN_OR_RETURN(stream_options.typed_leaf_fraction,
                       GetParamDouble(spec, "typed_leaf_fraction", 0.6));
  stream_options.vocabulary_size = static_cast<size_t>(vocab);
  stream_options.min_schema_elements = static_cast<size_t>(min_elems);
  stream_options.max_schema_elements = static_cast<size_t>(max_elems);
  stream_options.seed = seed;

  SMB_ASSIGN_OR_RETURN(uint64_t num_queries,
                       GetParamUint(spec, "queries", 16));
  SMB_ASSIGN_OR_RETURN(uint64_t query_elements,
                       GetParamUint(spec, "query_elements", 5));
  if (num_queries == 0) {
    return Status::InvalidArgument("experiment '" + spec.name +
                                   "': queries must be > 0");
  }

  eval::TraceGenOptions trace_options;
  SMB_ASSIGN_OR_RETURN(trace_options.num_requests,
                       GetParamUint(spec, "requests", 500));
  SMB_ASSIGN_OR_RETURN(trace_options.zipf_exponent,
                       GetParamDouble(spec, "zipf_query", 1.0));
  SMB_ASSIGN_OR_RETURN(trace_options.arrival_rate_qps,
                       GetParamDouble(spec, "rate_qps", 200.0));
  trace_options.seed = seed;
  SMB_ASSIGN_OR_RETURN(double deadline_ms,
                       GetParamDouble(spec, "deadline_ms", 0.0));
  if (deadline_ms > 0.0) {
    eval::TraceClassSpec cls;
    cls.name = "deadline";
    cls.deadline_ms = deadline_ms;
    trace_options.classes.push_back(cls);
  }
  SMB_ASSIGN_OR_RETURN(trace_options.target_mix, ParseTargetMix(spec));

  eval::ReplayOptions replay_options;
  SMB_ASSIGN_OR_RETURN(uint64_t threads, GetParamUint(spec, "threads", 4));
  SMB_ASSIGN_OR_RETURN(uint64_t open_loop,
                       GetParamUint(spec, "open_loop", 0));
  SMB_ASSIGN_OR_RETURN(replay_options.speed,
                       GetParamDouble(spec, "speed", 1.0));
  replay_options.num_threads = static_cast<size_t>(threads);
  replay_options.open_loop = open_loop != 0;

  SMB_ASSIGN_OR_RETURN(serve::ServiceSpec service_spec,
                       serve::ParseServiceSpec(spec));
  if (!service_spec.bound_driven() && !trace_options.target_mix.empty()) {
    return Status::InvalidArgument(
        "experiment '" + spec.name +
        "': target_mix needs target_bound (a fixed-budget service rejects "
        "per-request targets)");
  }

  const SteadyClock::time_point build_start = SteadyClock::now();

  // Stream the repository (never materialized outside the repo itself).
  SMB_ASSIGN_OR_RETURN(synth::SchemaStream stream,
                       synth::SchemaStream::Create(stream_options));
  SMB_ASSIGN_OR_RETURN(schema::SchemaRepository repo,
                       synth::BuildStreamRepository(stream));

  // Derive the distinct query files from the same vocabulary, then free
  // the stream; the trace references them by relative name so it stays
  // relocatable with its directory.
  std::vector<std::string> query_files;
  query_files.reserve(num_queries);
  Rng query_rng(seed ^ 0x632BE59BD9B4E019ULL);
  for (uint64_t q = 0; q < num_queries; ++q) {
    SMB_ASSIGN_OR_RETURN(
        schema::Schema query,
        stream.GenerateQuery(static_cast<size_t>(query_elements), &query_rng));
    const std::string file = "q" + std::to_string(q) + ".txt";
    SMB_RETURN_IF_ERROR(io::WriteTextFile(exp_dir + "/" + file,
                                          schema::WriteSchemaText(query)));
    query_files.push_back(file);
  }

  // Built exactly as `matchbounds serve` builds, so batch numbers are
  // comparable to a live deployment's.
  SMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const serve::ServingIndex> index,
      serve::BuildServingIndex(std::move(repo), service_spec.index_options(),
                               /*generation=*/1));
  serve::BuiltMatchService built =
      serve::BuildMatchService(service_spec, std::move(index));

  ExperimentResult result;
  result.name = spec.name;
  result.repo_schemas = stream_options.num_schemas;
  result.policy = service_spec.bound_driven() ? "target" : "fixed";
  result.build_seconds = SecondsSince(build_start);

  SMB_ASSIGN_OR_RETURN(eval::WorkloadTrace trace,
                       eval::GenerateTrace(query_files, trace_options));
  SMB_RETURN_IF_ERROR(eval::SaveTrace(exp_dir + "/trace.smbtrace", trace));

  std::string answers_dir;
  if (run_options.keep_answers) {
    answers_dir = exp_dir + "/answers";
    SMB_RETURN_IF_ERROR(EnsureDirectory(answers_dir));
  }
  TraceBindings bindings = ResolveTraceBindings(trace, exp_dir, answers_dir);
  InProcessTraceExecutor executor(built.service.get(), std::move(bindings));
  SMB_ASSIGN_OR_RETURN(result.report,
                       eval::ReplayTrace(trace, &executor, replay_options));
  // The raw outcomes exist for reconciliation tests; a sweep only needs
  // the aggregates, and keeping 10k outcomes x N experiments alive for
  // the whole batch is pointless weight.
  result.report.outcomes.clear();
  result.report.outcomes.shrink_to_fit();
  return result;
}

/// Minimal JSON string escaping (names and build labels only).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

eval::ExperimentSpec ExperimentFromCommandLine(const CommandLine& cl) {
  eval::ExperimentSpec spec;
  spec.name = cl.Get("label", "loadtest");
  for (const serve::SettingName& name : kWorkloadSettings) {
    if (cl.Has(name.flag)) spec.params[name.key] = cl.Get(name.flag);
  }
  for (const serve::SettingName& name : serve::ServiceSettingNames()) {
    if (name.key != nullptr && cl.Has(name.flag)) {
      spec.params[name.key] = cl.Get(name.flag);
    }
  }
  if (cl.Has("open-loop")) spec.params["open_loop"] = "1";
  return spec;
}

Result<std::vector<ExperimentResult>> RunExperimentBatch(
    const eval::ExperimentBatch& batch, const BatchRunOptions& options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("batch run needs a work directory");
  }
  if (batch.experiments.empty()) {
    return Status::InvalidArgument("batch has no experiments");
  }
  for (const eval::ExperimentSpec& spec : batch.experiments) {
    SMB_RETURN_IF_ERROR(CheckKnownKeys(spec));
  }
  std::vector<ExperimentResult> results;
  results.reserve(batch.experiments.size());
  for (const eval::ExperimentSpec& spec : batch.experiments) {
    const std::string exp_dir = options.work_dir + "/" + spec.name;
    SMB_RETURN_IF_ERROR(EnsureDirectory(exp_dir));
    SMB_ASSIGN_OR_RETURN(ExperimentResult result,
                         RunExperiment(spec, exp_dir, options));
    if (options.log != nullptr) {
      const eval::LoadReplayReport& r = result.report;
      *options.log << "experiment " << result.name << ": " << r.requests
                   << " requests, p50=" << FormatDouble(r.latency_ms.p50, 3)
                   << "ms p95=" << FormatDouble(r.latency_ms.p95, 3)
                   << "ms p99=" << FormatDouble(r.latency_ms.p99, 3)
                   << "ms, " << FormatDouble(r.throughput_rps, 1)
                   << " req/s, cache=" << FormatDouble(r.cache_hit_rate, 3)
                   << " shed=" << FormatDouble(r.shed_fraction, 3)
                   << " errors=" << r.errors << "\n";
    }
    results.push_back(std::move(result));
  }
  if (!options.csv_path.empty()) {
    std::ostringstream csv;
    WriteBatchCsv(csv, results);
    SMB_RETURN_IF_ERROR(io::WriteTextFile(options.csv_path, csv.str()));
  }
  if (!options.json_path.empty()) {
    SMB_RETURN_IF_ERROR(
        io::WriteTextFile(options.json_path, FormatBatchBenchJson(results)));
  }
  return results;
}

void WriteBatchCsv(std::ostream& os,
                   const std::vector<ExperimentResult>& results) {
  TextTable table({"experiment", "policy", "repo_schemas", "requests", "ok",
                   "errors", "shed", "cache_hits", "build_s", "wall_s",
                   "throughput_rps", "cache_hit_rate", "shed_fraction",
                   "p50_ms", "p95_ms", "p99_ms"});
  for (const ExperimentResult& result : results) {
    const eval::LoadReplayReport& r = result.report;
    table.AddRow({result.name, result.policy,
                  std::to_string(result.repo_schemas),
                  std::to_string(r.requests), std::to_string(r.ok),
                  std::to_string(r.errors), std::to_string(r.shed),
                  std::to_string(r.cache_hits),
                  FormatDouble(result.build_seconds, 3),
                  FormatDouble(r.wall_seconds, 3),
                  FormatDouble(r.throughput_rps, 2),
                  FormatDouble(r.cache_hit_rate, 4),
                  FormatDouble(r.shed_fraction, 4),
                  FormatDouble(r.latency_ms.p50, 4),
                  FormatDouble(r.latency_ms.p95, 4),
                  FormatDouble(r.latency_ms.p99, 4)});
  }
  table.WriteCsv(os);
}

std::string FormatBatchBenchJson(
    const std::vector<ExperimentResult>& results) {
  std::vector<std::string> rows;
  for (const ExperimentResult& result : results) {
    const eval::LoadReplayReport& r = result.report;
    std::ostringstream row;
    row << "    {\n"
        << "      \"name\": \"loadtest/" << JsonEscape(result.name)
        << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"iterations\": " << r.requests << ",\n"
        << "      \"real_time\": " << FormatDouble(r.latency_ms.mean, 6)
        << ",\n"
        << "      \"cpu_time\": " << FormatDouble(r.service_latency_ms.mean, 6)
        << ",\n"
        << "      \"time_unit\": \"ms\",\n"
        << "      \"p50_ms\": " << FormatDouble(r.latency_ms.p50, 6) << ",\n"
        << "      \"p95_ms\": " << FormatDouble(r.latency_ms.p95, 6) << ",\n"
        << "      \"p99_ms\": " << FormatDouble(r.latency_ms.p99, 6) << ",\n"
        << "      \"throughput_rps\": " << FormatDouble(r.throughput_rps, 4)
        << ",\n"
        << "      \"cache_hit_rate\": " << FormatDouble(r.cache_hit_rate, 6)
        << ",\n"
        << "      \"shed_fraction\": " << FormatDouble(r.shed_fraction, 6)
        << ",\n"
        << "      \"cache_hits\": " << r.cache_hits << ",\n"
        << "      \"shed\": " << r.shed << ",\n"
        << "      \"errors\": " << r.errors << ",\n"
        << "      \"requests\": " << r.requests << "\n"
        << "    }";
    rows.push_back(row.str());
    // The budget-vs-bound curve: one row per distinct per-request target
    // bound in the trace (0 = the server's default), so the curve is
    // machine-readable from the same BENCH_load.json that carries the
    // aggregates (and diffable via bench_diff.py --metric mean_budget).
    for (const eval::TargetMixStats& mix : r.per_target) {
      std::ostringstream curve;
      curve << "    {\n"
            << "      \"name\": \"loadtest/" << JsonEscape(result.name)
            << "/target=" << FormatDouble(mix.target_bound, 4) << "\",\n"
            << "      \"run_type\": \"iteration\",\n"
            << "      \"iterations\": " << mix.requests << ",\n"
            << "      \"real_time\": " << FormatDouble(mix.latency_ms.mean, 6)
            << ",\n"
            << "      \"cpu_time\": " << FormatDouble(mix.latency_ms.mean, 6)
            << ",\n"
            << "      \"time_unit\": \"ms\",\n"
            << "      \"target_bound\": "
            << FormatDouble(mix.target_bound, 6) << ",\n"
            << "      \"p50_ms\": " << FormatDouble(mix.latency_ms.p50, 6)
            << ",\n"
            << "      \"p95_ms\": " << FormatDouble(mix.latency_ms.p95, 6)
            << ",\n"
            << "      \"p99_ms\": " << FormatDouble(mix.latency_ms.p99, 6)
            << ",\n"
            << "      \"mean_certified\": "
            << FormatDouble(mix.mean_certified, 6) << ",\n"
            << "      \"mean_budget\": " << FormatDouble(mix.mean_budget, 2)
            << ",\n"
            << "      \"budget_samples\": " << mix.budget_samples << ",\n"
            << "      \"shed\": " << mix.shed << ",\n"
            << "      \"ok\": " << mix.ok << ",\n"
            << "      \"requests\": " << mix.requests << "\n"
            << "    }";
      rows.push_back(curve.str());
    }
  }
  std::ostringstream out;
  out << "{\n  \"context\": {\n    \"smb_build_type\": \"";
#if defined(__OPTIMIZE__) || (defined(NDEBUG) && !defined(_DEBUG))
  out << "release";
#else
  out << "debug";
#endif
  out << "\",\n    \"smb_tool\": \"matchbounds loadtest\"\n  },\n"
      << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace smb::harness
