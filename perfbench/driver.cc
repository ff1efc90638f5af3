// perfbench_driver — the in-process half of the serving benchmark.
// perfbench/run.py drives a live `matchbounds serve` over the wire; this
// program makes the inputs it serves, recomputes answers for the output
// check, and runs the traced in-process replay.
//
// Commands:
//   info        print the build stamp (build type, active SIMD tier)
//   collection  --schemas=N --seed=S --out=DIR
//               stream N schemas to DIR/repo/*.xsd, build the prepared
//               index over the re-read directory and save DIR/index.snap
//   requests    --schemas=N --seed=S --queries=Q --out=DIR
//               [--requests=R --zipf=X --rate-qps=X
//                --classes=NAME:WEIGHT:DEADLINE_MS,... --target-mix=T,...]
//               [--trace-queries=N]
//               write Q distinct 5-element queries DIR/qNNNN.txt over the
//               collection's vocabulary, and DIR/plan.tsv: without
//               --requests every query once in order, otherwise an
//               eval::GenerateTrace schedule over the first --trace-queries
//               of them (default: all)
//   replay      --repo=DIR --snapshot=FILE --plan=FILE --answers-dir=DIR
//               [--target-bound=B]
//               [--min-target-bound=B] [--top=N] [--threads=N]
//               [--cache-size=N] [--spans=FILE]
//               [--max-seconds=X] [--min-requests=N]
//               run the plan's requests one at a time through the public
//               calls `serve::MatchService::Execute` makes, in its order;
//               with --spans, record a span around each call and write the
//               spans and per-request counters to FILE as JSON lines, and
//               re-run candidate generation for the first misses (index
//               probes); --max-seconds stops the replay early, but never
//               before --min-requests requests ran. Answers go to
//               DIR/sample-<id>.csv (kept) or DIR/r-<id>.csv (removed)
//   load        --port=P --plan=FILE --answers-dir=DIR --out=FILE
//               --loop=closed|open [--connections=N] [--seconds=X] [--cycle]
//               [--samples=I,J,...] [--first-index=N]
//               drive a live `matchbounds serve` over N connections, one
//               request at a time per connection. Closed loop: the plan
//               lines in order, until --seconds pass (0: each line once;
//               from the top again with --cycle). Open loop: each line is
//               sent at its offset from the start, on the next free
//               connection. Requests are numbered from --first-index in
//               send order; request i writes DIR/r-<i>.csv, removed once its
//               `#count=` was read (DIR/sample-<i>.csv, kept, for the
//               --samples). Writes one record per request to FILE.
//
// Replay plan lines: `<id>\t<query-file>\t<target>\t<keep>`, where
// target 0 means the server's base target and keep 1 keeps the answers. Load plan lines:
// `<warm|timed>\t<offset-us>\t<query-file>\t<request-suffix>`; the
// suffix (` class=... target=...`) follows the answers path on the
// `match` line. Load records: `<i>\t<plan-line>\t<phase>\t<connection>
// \t<scheduled-ns>\t<sent-ns>\t<received-ns>\t<count>\t<reply>`,
// times on the steady clock's epoch, count -1 when no file was read.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timing.h"
#include "engine/batch_match_engine.h"
#include "engine/query_cache.h"
#include "eval/answer_set_io.h"
#include "eval/trace.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "index/snapshot.h"
#include "io/csv.h"
#include "match/fingerprint.h"
#include "match/matcher_factory.h"
#include "schema/text_format.h"
#include "schema/xsd_reader.h"
#include "schema/xsd_writer.h"
#include "serve/socket_io.h"
#include "sim/simd_dispatch.h"
#include "sim/synonyms.h"
#include "synth/stream.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace smb;
namespace fs = std::filesystem;

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

/// The synonym table `matchbounds serve` matches with.
const sim::SynonymTable& BuiltinSynonyms() {
  static const sim::SynonymTable kSynonyms = sim::SynonymTable::Builtin();
  return kSynonyms;
}

/// `matchbounds serve`'s default --delta, which the benchmark serves with.
constexpr double kServeDelta = 0.25;

/// Elements per generated query.
constexpr size_t kQueryElements = 5;

/// Match options identical to `matchbounds serve` at its default delta.
match::MatchOptions ServeMatchOptions() {
  match::MatchOptions options;
  options.delta_threshold = kServeDelta;
  options.objective.name.synonyms = &BuiltinSynonyms();
  return options;
}

/// The streamed-collection shape shared by `collection` and `requests`
/// (the load harness's defaults: 512-word vocabulary, 6–14 elements).
Result<synth::SchemaStream> MakeStream(const CommandLine& cl) {
  synth::StreamOptions options;
  SMB_ASSIGN_OR_RETURN(options.num_schemas, cl.GetUint("schemas", 2000));
  SMB_ASSIGN_OR_RETURN(options.seed, cl.GetUint("seed", 1));
  options.vocabulary_size = 512;
  options.min_schema_elements = 6;
  options.max_schema_elements = 14;
  return synth::SchemaStream::Create(options);
}

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

Status RunCollection(const CommandLine& cl) {
  const std::string out = cl.Get("out");
  if (out.empty()) return Status::InvalidArgument("--out required");
  SMB_ASSIGN_OR_RETURN(synth::SchemaStream stream, MakeStream(cl));
  const std::string repo_dir = out + "/repo";
  SMB_RETURN_IF_ERROR(EnsureDirectory(repo_dir));
  const SteadyClock::time_point start = SteadyClock::now();
  for (uint64_t i = 0; i < stream.size(); ++i) {
    SMB_RETURN_IF_ERROR(io::WriteTextFile(
        repo_dir + "/" + StrFormat("schema-%06llu.xsd",
                                   static_cast<unsigned long long>(i)),
        schema::WriteXsd(stream.Generate(i))));
  }
  const double write_seconds = SecondsSince(start);
  // Index exactly what the server will read back, so the snapshot's
  // repository fingerprint matches at startup.
  const SteadyClock::time_point build_start = SteadyClock::now();
  SMB_ASSIGN_OR_RETURN(schema::SchemaRepository repo,
                       schema::LoadRepositoryDir(repo_dir));
  const match::MatchOptions options = ServeMatchOptions();
  SMB_ASSIGN_OR_RETURN(
      index::PreparedRepository prepared,
      index::PreparedRepository::Build(repo, options.objective.name));
  SMB_RETURN_IF_ERROR(index::SaveSnapshot(prepared, out + "/index.snap"));
  std::cout << "collection schemas=" << repo.schema_count()
            << " write_s=" << FormatDouble(write_seconds, 3)
            << " index_s=" << FormatDouble(SecondsSince(build_start), 3)
            << "\n";
  return Status::OK();
}

/// `NAME:WEIGHT:DEADLINE_MS,...` → trace classes.
Result<std::vector<eval::TraceClassSpec>> ParseClasses(
    const std::string& spec) {
  std::vector<eval::TraceClassSpec> classes;
  if (spec.empty()) return classes;
  for (const std::string& item : Split(spec, ',')) {
    const std::vector<std::string> parts = Split(item, ':');
    if (parts.size() != 3) {
      return Status::InvalidArgument("bad class '" + item +
                                     "' (expected NAME:WEIGHT:DEADLINE_MS)");
    }
    eval::TraceClassSpec cls;
    cls.name = parts[0];
    SMB_ASSIGN_OR_RETURN(cls.weight, io::ParseDouble(parts[1]));
    SMB_ASSIGN_OR_RETURN(cls.deadline_ms, io::ParseDouble(parts[2]));
    classes.push_back(cls);
  }
  return classes;
}

Status RunRequests(const CommandLine& cl) {
  const std::string out = cl.Get("out");
  if (out.empty()) return Status::InvalidArgument("--out required");
  SMB_ASSIGN_OR_RETURN(synth::SchemaStream stream, MakeStream(cl));
  SMB_ASSIGN_OR_RETURN(uint64_t num_queries, cl.GetUint("queries", 16));
  SMB_ASSIGN_OR_RETURN(uint64_t seed, cl.GetUint("seed", 1));
  SMB_RETURN_IF_ERROR(EnsureDirectory(out));

  // Distinct after folding: two queries that fold alike share a cache key,
  // which would turn a workload's "never sent before" into a hit.
  const match::MatchOptions options = ServeMatchOptions();
  std::unordered_set<uint64_t> seen;
  std::vector<std::string> files;
  Rng rng(seed ^ 0x632BE59BD9B4E019ULL);
  for (uint64_t attempt = 0; files.size() < num_queries; ++attempt) {
    if (attempt > num_queries * 8 + 64) {
      return Status::FailedPrecondition(
          "vocabulary too small for " + std::to_string(num_queries) +
          " distinct queries");
    }
    SMB_ASSIGN_OR_RETURN(
        schema::Schema query,
        stream.GenerateQuery(kQueryElements, &rng));
    if (!seen.insert(match::FingerprintPreparedSchema(
                         query, options.objective.name))
             .second) {
      continue;
    }
    const std::string file = StrFormat("q%04zu.txt", files.size());
    SMB_RETURN_IF_ERROR(io::WriteTextFile(out + "/" + file,
                                          schema::WriteSchemaText(query)));
    files.push_back(file);
  }

  std::ostringstream plan;
  if (!cl.Has("requests")) {
    for (const std::string& file : files) {
      plan << file << "\t0\tdefault\t0\t0\n";
    }
  } else {
    eval::TraceGenOptions trace_options;
    SMB_ASSIGN_OR_RETURN(trace_options.num_requests,
                         cl.GetUint("requests", 1000));
    SMB_ASSIGN_OR_RETURN(trace_options.zipf_exponent,
                         cl.GetDouble("zipf", 1.0));
    SMB_ASSIGN_OR_RETURN(trace_options.arrival_rate_qps,
                         cl.GetDouble("rate-qps", 100.0));
    SMB_ASSIGN_OR_RETURN(trace_options.classes,
                         ParseClasses(cl.Get("classes")));
    for (const std::string& t : Split(cl.Get("target-mix"), ',')) {
      if (t.empty()) continue;
      SMB_ASSIGN_OR_RETURN(double target, io::ParseDouble(t));
      trace_options.target_mix.push_back(target);
    }
    trace_options.seed = seed;
    SMB_ASSIGN_OR_RETURN(uint64_t trace_queries,
                         cl.GetUint("trace-queries", files.size()));
    std::vector<std::string> traced(
        files.begin(),
        files.begin() + static_cast<std::ptrdiff_t>(
                            std::min<uint64_t>(trace_queries, files.size())));
    SMB_ASSIGN_OR_RETURN(eval::WorkloadTrace trace,
                         eval::GenerateTrace(traced, trace_options));
    for (const eval::TraceRequest& r : trace.requests) {
      plan << trace.query_files[r.query_index] << "\t" << r.arrival_us << "\t"
           << trace.classes[r.class_index] << "\t"
           << StrFormat("%.17g", r.deadline_ms) << "\t"
           << StrFormat("%.17g", r.target_bound) << "\n";
    }
  }
  std::cout << "requests queries=" << files.size()
            << " candidates=" << seen.size() << "\n";
  return io::WriteTextFile(out + "/plan.tsv", plan.str());
}

/// In-memory span recorder: name, start, end, parent span and request id.
/// Disabled, it records nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request;
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(SteadyClock::now()) {}

  int Begin(const char* name, int parent, int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = Now();
  }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin_)
        .count();
  }

  bool enabled_;
  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records one span over its scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Misses of a traced replay whose candidate generation is re-run as
/// index probes (each costs about two more index phases).
constexpr size_t kProbedMisses = 4;

struct PlanEntry {
  int64_t id = 0;
  std::string query_path;
  double target = 0.0;
  bool keep = false;
};

Result<std::vector<PlanEntry>> ReadReplayPlan(const std::string& path) {
  SMB_ASSIGN_OR_RETURN(std::string text, io::ReadTextFile(path));
  std::vector<PlanEntry> plan;
  for (const std::string& line : Split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, '\t');
    if (f.size() != 4) {
      return Status::ParseError("bad replay plan line: " + line);
    }
    PlanEntry entry;
    SMB_ASSIGN_OR_RETURN(uint64_t id, io::ParseUint(f[0]));
    entry.id = static_cast<int64_t>(id);
    entry.query_path = f[1];
    SMB_ASSIGN_OR_RETURN(entry.target, io::ParseDouble(f[2]));
    entry.keep = f[3] == "1";
    plan.push_back(std::move(entry));
  }
  if (plan.empty()) return Status::InvalidArgument("empty replay plan");
  return plan;
}

/// Per-request counters written next to the spans.
struct RequestRecord {
  int64_t id = 0;
  bool hit = false;
  size_t answers = 0;
  uint64_t bytes_written = 0;
  engine::BatchMatchStats stats;
};

std::string FormatRecord(const RequestRecord& r) {
  const engine::BatchMatchStats& s = r.stats;
  double skew = 0.0;
  if (!s.shard_candidates_generated.empty()) {
    uint64_t total = 0;
    uint64_t most = 0;
    for (uint64_t c : s.shard_candidates_generated) {
      total += c;
      most = std::max(most, c);
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(s.shard_candidates_generated.size());
    skew = mean > 0.0 ? static_cast<double>(most) / mean : 0.0;
  }
  std::ostringstream out;
  out << "{\"kind\":\"request\",\"req\":" << r.id
      << ",\"hit\":" << (r.hit ? 1 : 0) << ",\"answers\":" << r.answers
      << ",\"bytes\":" << r.bytes_written;
  if (!r.hit) {
    out << ",\"index_s\":" << StrFormat("%.9g", s.index_seconds)
        << ",\"precompute_s\":" << StrFormat("%.9g", s.precompute_seconds)
        << ",\"match_s\":" << StrFormat("%.9g", s.match_seconds)
        << ",\"shard_skew\":" << StrFormat("%.9g", skew)
        << ",\"scored\":" << s.adaptive.budget_spent
        << ",\"kept\":" << s.match.candidates_generated
        << ",\"rounds\":" << s.adaptive.rounds
        << ",\"cells_total\":" << s.adaptive.cells_total
        << ",\"cells_escalated\":" << s.adaptive.cells_escalated
        << ",\"achieved\":"
        << StrFormat("%.17g", s.adaptive.achieved_completeness)
        << ",\"states_explored\":" << s.match.states_explored
        << ",\"states_pruned\":" << s.match.states_pruned
        << ",\"mappings_emitted\":" << s.match.mappings_emitted;
  }
  out << "}";
  return out.str();
}

Status RunReplay(const CommandLine& cl) {
  const std::string repo_dir = cl.Get("repo");
  const std::string snapshot_path = cl.Get("snapshot");
  if (repo_dir.empty() || snapshot_path.empty()) {
    return Status::InvalidArgument("--repo and --snapshot required");
  }
  SMB_ASSIGN_OR_RETURN(std::vector<PlanEntry> plan,
                       ReadReplayPlan(cl.Get("plan")));
  SMB_ASSIGN_OR_RETURN(double base_target, cl.GetDouble("target-bound", 0.0));
  SMB_ASSIGN_OR_RETURN(double min_target,
                       cl.GetDouble("min-target-bound", base_target));
  SMB_ASSIGN_OR_RETURN(uint64_t top, cl.GetUint("top", 0));
  SMB_ASSIGN_OR_RETURN(uint64_t threads, cl.GetUint("threads", 1));
  SMB_ASSIGN_OR_RETURN(uint64_t cache_size, cl.GetUint("cache-size", 64));
  SMB_ASSIGN_OR_RETURN(double max_seconds, cl.GetDouble("max-seconds", 0.0));
  SMB_ASSIGN_OR_RETURN(uint64_t min_requests, cl.GetUint("min-requests", 1));
  const std::string spans_path = cl.Get("spans");
  const std::string answers_dir = cl.Get("answers-dir");
  if (base_target <= 0.0) {
    return Status::InvalidArgument(
        "--target-bound required (the benchmark serves bound-driven)");
  }

  Tracer tracer(!spans_path.empty());
  const match::MatchOptions match_options = ServeMatchOptions();

  // Set-up, in the order `serve::OpenServingIndex` performs it, plus an
  // index build the server skips (it loads the snapshot) for the build
  // cost the snapshot saves.
  std::optional<schema::SchemaRepository> repo;
  std::unique_ptr<match::Matcher> matcher;
  std::optional<index::PreparedRepository> prepared;
  {
    ScopedSpan setup(&tracer, "setup", -1, -1);
    {
      ScopedSpan s(&tracer, "schema.load_dir", setup.id(), -1);
      SMB_ASSIGN_OR_RETURN(repo, schema::LoadRepositoryDir(repo_dir));
    }
    {
      ScopedSpan s(&tracer, "match.fingerprint_repo", setup.id(), -1);
      (void)match::FingerprintRepository(*repo);
    }
    {
      ScopedSpan s(&tracer, "match.make_matcher", setup.id(), -1);
      SMB_ASSIGN_OR_RETURN(matcher, match::MakeMatcher("exhaustive", *repo));
    }
    {
      ScopedSpan s(&tracer, "index.snapshot_load", setup.id(), -1);
      SMB_ASSIGN_OR_RETURN(
          prepared,
          index::LoadSnapshot(snapshot_path, *repo,
                              match_options.objective.name,
                              static_cast<size_t>(threads)));
    }
    if (tracer.enabled()) {
      ScopedSpan s(&tracer, "index.build", setup.id(), -1);
      SMB_ASSIGN_OR_RETURN(
          index::PreparedRepository built,
          index::PreparedRepository::Build(*repo,
                                           match_options.objective.name));
      (void)built;
    }
  }

  engine::BatchMatchOptions base_options;
  base_options.num_threads = static_cast<size_t>(threads);
  base_options.global_top_k = static_cast<size_t>(top);
  base_options.prepared_repository = &*prepared;
  base_options.adaptive = index::AdaptiveCandidatePolicy{};
  engine::QueryResultCache cache(static_cast<size_t>(cache_size));
  const index::CandidateGenerator probe(&*prepared, match_options.objective);

  std::vector<RequestRecord> records;
  size_t probed = 0;
  const SteadyClock::time_point start = SteadyClock::now();
  for (const PlanEntry& entry : plan) {
    if (max_seconds > 0.0 && records.size() >= min_requests &&
        SecondsSince(start) >= max_seconds) {
      break;
    }
    RequestRecord record;
    record.id = entry.id;
    engine::BatchMatchOptions eopts = base_options;
    eopts.adaptive->min_provable_completeness =
        entry.target > 0.0 ? std::clamp(entry.target, min_target, 1.0)
                           : base_target;
    const double target = eopts.adaptive->min_provable_completeness;
    const std::string out_path = answers_dir +
                                 (entry.keep ? "/sample-" : "/r-") +
                                 std::to_string(entry.id) + ".csv";
    schema::Schema query;
    {
      ScopedSpan request(&tracer, "request", -1, entry.id);
      std::string text;
      {
        ScopedSpan s(&tracer, "io.read", request.id(), entry.id);
        SMB_ASSIGN_OR_RETURN(text, io::ReadTextFile(entry.query_path));
      }
      {
        ScopedSpan s(&tracer, "schema.parse", request.id(), entry.id);
        SMB_ASSIGN_OR_RETURN(query, schema::ParseSchemaText(text));
      }
      engine::QueryCacheKey key;
      {
        ScopedSpan s(&tracer, "match.fingerprint", request.id(), entry.id);
        key.query_fingerprint = match::FingerprintPreparedSchema(
            query, match_options.objective.name);
        match::Fingerprinter fp;
        fp.U64(match::FingerprintMatchOptions(match_options))
            .U64(eopts.global_top_k)
            .Double(target)
            .U64(eopts.adaptive->initial_limit);
        key.options_fingerprint = fp.digest();
      }
      std::shared_ptr<const engine::CachedAnswers> cached;
      {
        ScopedSpan s(&tracer, "engine.cache.lookup", request.id(), entry.id);
        cached = cache.Lookup(key);
      }
      record.hit = cached != nullptr;
      if (!record.hit) {
        ScopedSpan s(&tracer, "engine.run", request.id(), entry.id);
        engine::BatchMatchEngine batch(eopts);
        SMB_ASSIGN_OR_RETURN(
            match::AnswerSet answers,
            batch.Run(*matcher, query, *repo, match_options, &record.stats));
        auto computed = std::make_shared<engine::CachedAnswers>();
        computed->answers = std::move(answers);
        computed->provably_complete_fraction =
            record.stats.provably_complete_fraction;
        cached = std::move(computed);
      }
      {
        ScopedSpan s(&tracer, "eval.write", request.id(), entry.id);
        SMB_RETURN_IF_ERROR(
            eval::WriteAnswerSetFile(out_path, cached->answers));
      }
      if (!record.hit) {
        ScopedSpan s(&tracer, "engine.cache.insert", request.id(), entry.id);
        cache.Insert(key, cached);
      }
      record.answers = cached->answers.size();
    }
    std::error_code ec;
    record.bytes_written = fs::file_size(out_path, ec);
    if (!entry.keep) fs::remove(out_path, ec);
    if (!record.hit && tracer.enabled() && probed < kProbedMisses) {
      ++probed;
      // Candidate generation re-run outside the request: round 0 alone at
      // the initial limit, then the full bound-driven escalation.
      ScopedSpan probe_span(&tracer, "index.probe", -1, entry.id);
      {
        ScopedSpan s(&tracer, "index.round0", probe_span.id(), entry.id);
        SMB_ASSIGN_OR_RETURN(
            index::QueryCandidates round0,
            probe.Generate(query, eopts.adaptive->initial_limit));
        (void)round0;
      }
      {
        ScopedSpan s(&tracer, "index.adaptive", probe_span.id(), entry.id);
        SMB_ASSIGN_OR_RETURN(
            index::QueryCandidates adaptive,
            probe.GenerateAdaptive(query, *eopts.adaptive, kServeDelta));
        (void)adaptive;
      }
    }
    records.push_back(std::move(record));
  }

  std::cout << "replayed " << records.size() << " of " << plan.size()
            << " request(s)\n";
  if (!tracer.enabled()) return Status::OK();
  std::ostringstream out;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << "{\"kind\":\"span\",\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"req\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  for (const RequestRecord& r : records) out << FormatRecord(r) << "\n";
  return io::WriteTextFile(spans_path, out.str());
}

/// One line of a load plan.
struct LoadEntry {
  std::string phase;
  int64_t offset_us = 0;
  std::string query;
  std::string suffix;
};

/// What the client saw of one request.
struct LoadRecord {
  int64_t index = 0;
  size_t entry = 0;
  size_t connection = 0;
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  int64_t received_ns = 0;
  int64_t count = -1;
  std::string reply;
};

/// The `#count=` header of an answer file, or -1.
int64_t AnswerFileCount(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  for (int i = 0; i < 4 && std::getline(in, line); ++i) {
    if (line.rfind("#count=", 0) == 0) {
      Result<uint64_t> count = io::ParseUint(line.substr(7));
      return count.ok() ? static_cast<int64_t>(*count) : -1;
    }
  }
  return -1;
}

/// A closed- or open-loop load generator over a fixed set of connections.
class LoadClient {
 public:
  LoadClient(std::vector<LoadEntry> plan, std::string answers_dir,
             std::unordered_set<int64_t> samples, int64_t first_index)
      : plan_(std::move(plan)),
        answers_dir_(std::move(answers_dir)),
        samples_(std::move(samples)),
        next_index_(first_index) {}

  Status Connect(uint16_t port, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      SMB_ASSIGN_OR_RETURN(serve::Socket socket,
                           serve::ConnectTo("127.0.0.1", port));
      connections_.push_back(
          std::make_unique<serve::Socket>(std::move(socket)));
    }
    return Status::OK();
  }

  /// Sends `entries` (plan line numbers) in order over every connection,
  /// until all were sent (or, with `cycle`, without end) or `deadline`.
  void RunClosed(const std::vector<size_t>& entries, bool cycle,
                 std::optional<SteadyClock::time_point> deadline) {
    size_t next = 0;
    RunOnConnections([&](size_t connection, std::vector<LoadRecord>* out) {
      for (;;) {
        LoadRecord record;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (deadline && SteadyClock::now() >= *deadline) return;
          if (next >= entries.size() && !cycle) return;
          record.entry = entries[next++ % entries.size()];
          record.index = next_index_++;
        }
        record.connection = connection;
        record.scheduled_ns = Now();
        Send(connection, &record);
        out->push_back(std::move(record));
      }
    });
  }

  /// Sends every plan line at its offset from now, each on the next free
  /// connection.
  void RunOpen() {
    const int64_t start_ns = Now() + 50'000'000;
    size_t next = 0;
    RunOnConnections([&](size_t connection, std::vector<LoadRecord>* out) {
      for (;;) {
        LoadRecord record;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (next >= plan_.size()) return;
          record.entry = next++;
          record.index = next_index_++;
        }
        record.connection = connection;
        record.scheduled_ns =
            start_ns + plan_[record.entry].offset_us * 1000;
        std::this_thread::sleep_until(
            SteadyClock::time_point(std::chrono::duration_cast<
                SteadyClock::duration>(
                std::chrono::nanoseconds(record.scheduled_ns))));
        Send(connection, &record);
        out->push_back(std::move(record));
      }
    });
  }

  const std::vector<LoadEntry>& plan() const { return plan_; }
  std::vector<LoadRecord>& records() { return records_; }

 private:
  /// Nanoseconds on the steady clock's own epoch (CLOCK_MONOTONIC on Linux),
  /// so records of separate runs, and the caller's clock, line up.
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
  }

  template <typename Body>
  void RunOnConnections(Body body) {
    std::vector<std::vector<LoadRecord>> per_connection(connections_.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections_.size(); ++c) {
      threads.emplace_back([&, c] { body(c, &per_connection[c]); });
    }
    for (std::thread& t : threads) t.join();
    for (auto& records : per_connection) {
      for (LoadRecord& r : records) records_.push_back(std::move(r));
    }
    std::sort(records_.begin(), records_.end(),
              [](const LoadRecord& a, const LoadRecord& b) {
                return a.index < b.index;
              });
  }

  void Send(size_t connection, LoadRecord* record) {
    const LoadEntry& entry = plan_[record->entry];
    const std::string out =
        answers_dir_ + (samples_.count(record->index) ? "/sample-" : "/r-") +
        std::to_string(record->index) + ".csv";
    serve::Socket& socket = *connections_[connection];
    const std::string line = "match " + entry.query + " " + out +
                             entry.suffix + "\n";
    record->sent_ns = Now();
    Status sent = serve::WriteAll(socket, line);
    std::string reply;
    if (sent.ok()) {
      // A reader per request: one request is in flight per connection, so
      // nothing is buffered past the reply.
      serve::LineReader reader(&socket);
      Result<bool> more = reader.ReadLine(&reply);
      if (!more.ok()) sent = more.status();
      else if (!*more) sent = Status::IOError("server closed the connection");
    }
    record->received_ns = Now();
    if (!sent.ok()) {
      reply = "err " + entry.query + " transport: " + sent.ToString();
    } else if (reply.rfind("ok ", 0) == 0) {
      record->count = AnswerFileCount(out);
    }
    if (!samples_.count(record->index)) std::remove(out.c_str());
    record->reply = std::move(reply);
  }

  std::vector<LoadEntry> plan_;
  std::string answers_dir_;
  std::unordered_set<int64_t> samples_;
  std::vector<std::unique_ptr<serve::Socket>> connections_;
  std::mutex mutex_;
  int64_t next_index_;
  std::vector<LoadRecord> records_;
};

Status RunLoad(const CommandLine& cl) {
  SMB_ASSIGN_OR_RETURN(uint64_t port, cl.GetUint("port", 0));
  SMB_ASSIGN_OR_RETURN(uint64_t connections, cl.GetUint("connections", 1));
  SMB_ASSIGN_OR_RETURN(double seconds, cl.GetDouble("seconds", 0.0));
  const std::string loop = cl.Get("loop");
  const std::string out_path = cl.Get("out");
  if (port == 0 || port > 65535 || connections == 0 || out_path.empty() ||
      (loop != "closed" && loop != "open")) {
    return Status::InvalidArgument(
        "load needs --port, --connections >= 1, --out and "
        "--loop=closed|open");
  }
  SMB_ASSIGN_OR_RETURN(std::string text, io::ReadTextFile(cl.Get("plan")));
  std::vector<LoadEntry> plan;
  for (const std::string& line : Split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, '\t');
    if (f.size() != 4 || (f[0] != "warm" && f[0] != "timed")) {
      return Status::ParseError("bad load plan line: " + line);
    }
    LoadEntry entry;
    entry.phase = f[0];
    SMB_ASSIGN_OR_RETURN(uint64_t offset, io::ParseUint(f[1]));
    entry.offset_us = static_cast<int64_t>(offset);
    entry.query = f[2];
    entry.suffix = f[3];
    plan.push_back(std::move(entry));
  }
  std::unordered_set<int64_t> samples;
  for (const std::string& item : Split(cl.Get("samples"), ',')) {
    if (item.empty()) continue;
    SMB_ASSIGN_OR_RETURN(uint64_t index, io::ParseUint(item));
    samples.insert(static_cast<int64_t>(index));
  }

  SMB_ASSIGN_OR_RETURN(uint64_t first_index, cl.GetUint("first-index", 0));
  LoadClient client(std::move(plan), cl.Get("answers-dir"),
                    std::move(samples), static_cast<int64_t>(first_index));
  SMB_RETURN_IF_ERROR(client.Connect(static_cast<uint16_t>(port),
                                     static_cast<size_t>(connections)));
  if (loop == "open") {
    client.RunOpen();
  } else {
    std::vector<size_t> entries(client.plan().size());
    for (size_t i = 0; i < entries.size(); ++i) entries[i] = i;
    std::optional<SteadyClock::time_point> deadline;
    if (seconds > 0.0) {
      deadline = SteadyClock::now() +
                 std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(seconds));
    }
    client.RunClosed(entries, cl.Has("cycle") && deadline, deadline);
  }

  std::ostringstream out;
  for (const LoadRecord& r : client.records()) {
    out << r.index << "\t" << r.entry << "\t"
        << client.plan()[r.entry].phase << "\t" << r.connection << "\t"
        << r.scheduled_ns << "\t" << r.sent_ns << "\t"
        << r.received_ns << "\t" << r.count << "\t" << r.reply << "\n";
  }
  return io::WriteTextFile(out_path, out.str());
}

}  // namespace

int main(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) return Fail(cl.status());
  const std::string& command = cl->command();
  Status status;
  if (command == "info") {
    std::cout << "build_type=" << PERFBENCH_BUILD_TYPE
              << " simd=" << sim::SimdTierName(sim::ActiveSimdTier()) << "\n";
    return 0;
  } else if (command == "collection") {
    status = RunCollection(*cl);
  } else if (command == "requests") {
    status = RunRequests(*cl);
  } else if (command == "replay") {
    status = RunReplay(*cl);
  } else if (command == "load") {
    status = RunLoad(*cl);
  } else {
    std::cerr << "usage: perfbench_driver "
                 "info|collection|requests|replay|load "
                 "[flags] (see the header of perfbench/driver.cc)\n";
    return 2;
  }
  return status.ok() ? 0 : Fail(status);
}
