// matchbounds — command-line front end for the library.
//
// Commands:
//   generate   synthesize a test collection (schemas as .xsd + truth CSV)
//   match      run a matcher over a repository directory, dump answers CSV
//   curve      measure a P/R curve from answers + ground truth
//   bounds     compute effectiveness bounds from a curve + an answers file
//              (or a prebuilt bounds-input CSV)
//   trace      generate a Zipf-repetition/Poisson-arrival workload trace
//   loadtest   replay a trace (in-process, live server, or batch sweep)
//              and report p50/p95/p99, throughput, cache and shed rates
//
// Every artifact is a CSV (see src/io/) so the steps can run on different
// machines — the decoupled workflow the paper's technique enables.
//
// Examples:
//   matchbounds generate --out=/tmp/col --schemas=50 --seed=7
//   matchbounds match --repo=/tmp/col --query=/tmp/col/query.txt
//       --matcher=exhaustive --out=/tmp/s1.csv
//   matchbounds match --repo=/tmp/col --query=/tmp/col/query.txt
//       --matcher=beam --beam=6 --out=/tmp/s2.csv
//   matchbounds curve --answers=/tmp/s1.csv --truth=/tmp/col/truth.csv
//       --max=0.25 --step=0.01 --out=/tmp/s1_curve.csv
//   matchbounds bounds --curve=/tmp/s1_curve.csv --s2=/tmp/s2.csv

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bounds/bounds_report.h"
#include "bounds/budget_curve.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timing.h"
#include "engine/batch_match_engine.h"
#include "eval/experiment_batch.h"
#include "eval/load_harness.h"
#include "eval/pr_curve.h"
#include "eval/trace.h"
#include "harness/batch_runner.h"
#include "harness/trace_executor.h"
#include "serve/replay_client.h"
#include "eval/workload.h"
#include "index/candidate_generator.h"
#include "eval/answer_set_io.h"
#include "bounds/curve_io.h"
#include "io/csv.h"
#include "io/fault_injection.h"
#include "match/matcher_factory.h"
#include "schema/text_format.h"
#include "schema/xsd_reader.h"
#include "sim/simd_dispatch.h"
#include "serve/match_service.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service_spec.h"
#include "serve/serving_index.h"
#include "schema/stats.h"
#include "schema/xsd_writer.h"
#include "synth/generator.h"
#include "synth/stream.h"

namespace {

using namespace smb;
namespace fs = std::filesystem;

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

void PrintUsage() {
  std::cout <<
      R"(usage: matchbounds <command> [flags]

commands:
  generate  --out=DIR [--schemas=N] [--query-elements=N] [--seed=N]
            synthesize a collection: DIR/schema-*.xsd, DIR/query.txt,
            DIR/truth.csv
  match     --repo=DIR --query=FILE --out=FILE
            [--matcher=exhaustive|beam|cluster|topk] [--beam=N] [--topm=N]
            [--k=N] [--delta=X] run a matcher, write the ranked answers
            [--threads=N] shard the repository across N worker threads over
            the repository index (0 = all cores; without a budget, answers
            are identical to a single-threaded direct run)
            [--shard-size=N] schemas per shard on engine runs (--threads,
            --candidates or --target-bound)
            [--top=N] keep only the globally best N answers
            [--candidates=C] sparse S2 run: matchers only see the index's
            top-C candidates per (query element, schema) cell
            [--target-bound=B] bound-driven sparse run: per-cell budgets
            grow until a fraction B of cells is certified complete at the
            Δ threshold (mutually exclusive with --candidates;
            [--initial-candidates=N] [--max-candidates=N] tune the growth)
  workload  --repo=DIR --queries=DIR [--matcher=...] [--candidates=C]
            [--target-bound=B] [--threads=N] [--delta=X] [--top=N]
            [--compare-dense] [--out-dir=DIR] build the repository index
            once, serve every query*.txt in DIR through it; report
            per-query latency (and, with --compare-dense, recall against
            the exact target-1.0 run). --out-dir writes answers-NNNN.csv per
            query (and dense-NNNN.csv with --compare-dense) for the
            bounds pipeline
            [--snapshot=FILE] load the prepared index from FILE when it
            exists (build + save it there otherwise) and report load-time
            vs build-time
            [--budget-sweep=C1,C2,...] sweep fixed candidate budgets and
            print the bound-vs-cost curve (certified completeness and
            candidates generated per C) over the workload
  serve     --repo=DIR [--snapshot=FILE] [--matcher=...] [--candidates=C]
            [--target-bound=B] [--threads=N] [--delta=X] [--top=N]
            [--cache-size=N] long-running mode: prepare (or load) the
            repository index once, then answer match requests. Request
            lines:
              match <query-file> [<answers-out.csv>] [class=NAME]
                    [deadline_ms=N] [target=B]   (target= asks for a
                    per-request completeness bound; bound-driven mode only)
              stats
              reload <snapshot-file> [<repo-dir>]
              quit
            snapshots save atomically (tmp + fsync + rename, keeping a
            `.bak` of the previous snapshot) and loads fall back to the
            `.bak` with a warning when the primary is unusable; `reload`
            re-reads the repository directory (default: startup --repo),
            swaps the index atomically when the snapshot matches it, and
            keeps serving the old generation on any failure
            [--max-line-bytes=N] reject request lines longer than N
            bytes with a clean `err` (the connection stays usable)
            [--listen=HOST:PORT] network mode: accept any number of
            concurrent client connections (PORT 0 picks an ephemeral
            port, reported on the `listening=` line; the start-up
            stages' ms go to stderr on a `startup` line); a fixed worker
            pool ([--workers=N]) executes requests from a bounded
            admission queue ([--queue-depth=N]); under queue or deadline
            pressure ([--deadline-ms=N] default per request) the
            effective --target-bound degrades per request down to
            [--min-target-bound=B] — responses stay certified
            (`complete=`/`target=`/`shed=`), the protocol never errors;
            SIGTERM/SIGINT drains gracefully (every admitted request is
            answered, `drained ... dropped=0`)
            [--requests=FILE] offline mode: replay request lines from
            FILE in-process until EOF/quit (serve needs --listen or
            --requests)
            Answers are served through a concurrent sharded LRU result
            cache keyed by (prepared query fingerprint, match options
            incl. the effective target bound); every response reports
            per-request latency, the certified completeness of its
            answers (cache hits replay the certificate of the run that
            produced them) and cache/engine stats
  client    --connect=HOST:PORT --requests=FILE [--connections=N]
            replay a request file against a running `serve --listen`
            server over N concurrent connections; prints every response
            in request order plus an ok/err/shed/retries summary
            [--retries=N] retry each request up to N times on transport
            failures (reconnect + re-send; responses are idempotent via
            the server cache), with bounded exponential backoff
            [--retry-base-ms=X] [--retry-max-ms=X] and deterministic
            jitter [--retry-seed=N]
  curve     --answers=FILE --truth=FILE --out=FILE [--max=X] [--step=X]
            measure the P/R curve of an answers file
  bounds    --curve=FILE (--s2=FILE | --input=FILE) [--precision=X]
            compute best/worst/random effectiveness bounds for S2
  stats     --repo=DIR
            print shape statistics of a schema repository
  trace     --out=DIR [--queries=N] [--query-elements=N] [--requests=N]
            [--zipf-query=X] [--rate-qps=X] [--target-mix=B1,B2,...]
            [--classes=NAME:WEIGHT:DEADLINE_MS,...] [--seed=N]
            generate DIR/q*.txt query schemas (over the same Zipfian
            synthetic vocabulary `loadtest` streams its repository from:
            [--vocab=N] [--zipf-name=X] [--min-elements=N]
            [--max-elements=N] [--typed-fraction=X]) plus
            DIR/trace.smbtrace — a versioned binary workload trace with
            Zipf-skewed query repetition, Poisson arrival timestamps and
            per-request deadline classes / target bounds; see
            docs/loadtest.md for the format
  loadtest  replay a workload trace and report client-observed
            p50/p95/p99 latency, throughput, cache hit rate, shed
            fraction and the budget-vs-bound curve. Three modes:
            --work-dir=DIR [--schemas=N] [--requests=N] [--label=NAME]
            [--target-bound=B [--min-target-bound=B] [--target-mix=...]]
            [--matcher=...] [--candidates=C] [--threads=N] [--seed=N]
            [--csv=FILE] [--json=FILE] synthesize a streamed repository
            (100k+ schemas, O(1) memory per schema), derive queries and
            a trace, replay through an in-process service; --json writes
            benchmark-shaped JSON for tools/bench_diff.py --metric
            --batch=FILE --work-dir=DIR [--csv=FILE] [--json=FILE]
            run a declarative experiment sweep (docs/loadtest.md)
            --trace=FILE (--repo=DIR [--snapshot=FILE] [serve flags] |
            --connect=HOST:PORT) [--trace-dir=DIR] [--answers-dir=DIR]
            [--replay-threads=N] [--open-loop] [--speed=X] replay an
            existing trace against a local repository (in-process) or a
            running `serve --listen` endpoint; identical traces +
            bindings produce byte-identical answer files either way

environment:
  SMB_FAULTS=<spec>  arm deterministic I/O fault injection for testing,
            e.g. "seed=7,socket.recv=0.05:reset,file.fsync@3"; see
            docs/serving.md for the full site list and grammar
)";
}

int CmdGenerate(const CommandLine& cl) {
  std::string out_dir = cl.Get("out");
  if (out_dir.empty()) return Fail(Status::InvalidArgument("--out required"));
  auto schemas = cl.GetUint("schemas", 50);
  auto query_elements = cl.GetUint("query-elements", 4);
  auto seed = cl.GetUint("seed", 2006);
  if (!schemas.ok()) return Fail(schemas.status());
  if (!query_elements.ok()) return Fail(query_elements.status());
  if (!seed.ok()) return Fail(seed.status());

  Rng rng(*seed);
  synth::SynthOptions options;
  options.num_schemas = *schemas;
  auto collection = synth::GenerateProblem(*query_elements, options, &rng);
  if (!collection.ok()) return Fail(collection.status());

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    return Fail(Status::IOError("cannot create " + out_dir + ": " +
                                ec.message()));
  }
  // A reader reconstructs node ids in document pre-order; canonicalize the
  // schemas the same way and translate the planted keys, so truth.csv stays
  // valid against the re-read repository.
  std::vector<std::vector<schema::NodeId>> id_maps(
      collection->repository.schema_count());
  for (size_t i = 0; i < collection->repository.schema_count(); ++i) {
    schema::Schema canonical = schema::CanonicalizePreOrder(
        collection->repository.schema(static_cast<int32_t>(i)), &id_maps[i]);
    std::string path =
        out_dir + "/schema-" + StrFormat("%04zu", i) + ".xsd";
    if (Status st = io::WriteTextFile(path, schema::WriteXsd(canonical));
        !st.ok()) {
      return Fail(st);
    }
  }
  eval::GroundTruth canonical_truth;
  std::vector<match::Mapping::Key> canonical_keys;
  for (const match::Mapping::Key& key : collection->planted) {
    match::Mapping::Key mapped = key;
    const auto& id_map = id_maps[static_cast<size_t>(key.schema_index)];
    for (schema::NodeId& target : mapped.targets) {
      target = id_map[static_cast<size_t>(target)];
    }
    canonical_truth.AddCorrect(mapped);
    canonical_keys.push_back(std::move(mapped));
  }
  if (Status st = io::WriteTextFile(
          out_dir + "/query.txt",
          schema::WriteSchemaText(collection->query));
      !st.ok()) {
    return Fail(st);
  }
  if (Status st = io::WriteTextFile(
          out_dir + "/truth.csv",
          eval::WriteGroundTruthCsv(canonical_truth, canonical_keys));
      !st.ok()) {
    return Fail(st);
  }
  std::cout << "wrote " << collection->repository.schema_count()
            << " schemas, query.txt and truth.csv (|H| = "
            << collection->truth.size() << ") to " << out_dir << "\n";
  return 0;
}

void PrintAdaptiveStats(const engine::BatchMatchStats& stats) {
  std::cout << ", adaptive: bound "
            << FormatDouble(stats.adaptive.achieved_completeness * 100.0, 1)
            << "% certified in " << stats.adaptive.rounds
            << " escalation round(s), " << stats.adaptive.budget_spent
            << " candidates scored, " << stats.adaptive.names_scored
            << " name scores, " << stats.adaptive.cells_escalated
            << " of " << stats.adaptive.cells_total << " cells escalated, "
            << stats.adaptive.schemas_pruned << " schemas pruned";
}

void PrintMatchStats(const match::MatchStats& stats) {
  std::cout << stats.states_explored << " states explored, "
            << stats.states_pruned << " pruned";
  if (stats.candidates_generated > 0 || stats.candidates_skipped > 0) {
    std::cout << "; index: " << stats.candidates_generated
              << " candidates generated, " << stats.candidates_skipped
              << " nodes skipped";
  }
}

int CmdMatch(const CommandLine& cl) {
  std::string repo_dir = cl.Get("repo");
  std::string query_path = cl.Get("query");
  std::string out_path = cl.Get("out");
  if (repo_dir.empty() || query_path.empty() || out_path.empty()) {
    return Fail(Status::InvalidArgument("--repo, --query and --out required"));
  }
  // Unlike a service, `match` runs exact unless asked for a budget.
  serve::ServiceSpec exact;
  exact.engine_options.adaptive.reset();
  auto spec = serve::ParseServiceSpec(cl, exact);
  if (!spec.ok()) return Fail(spec.status());
  const engine::BatchMatchOptions& bopts = spec->engine_options;
  const bool sparse = bopts.adaptive.has_value();
  const bool use_engine = cl.Has("threads") || sparse;
  if (cl.Has("shard-size") && !use_engine) {
    return Fail(Status::InvalidArgument(
        "--shard-size only applies to engine runs; add --threads=N, "
        "--candidates=C or --target-bound=B"));
  }
  auto shard_size = cl.GetUint("shard-size", 0);
  if (!shard_size.ok()) return Fail(shard_size.status());
  spec->engine_options.shard_size = static_cast<size_t>(*shard_size);
  auto repo = schema::LoadRepositoryDir(repo_dir);
  if (!repo.ok()) return Fail(repo.status());
  auto query_text = io::ReadTextFile(query_path);
  if (!query_text.ok()) return Fail(query_text.status());
  auto query = schema::ParseSchemaText(*query_text);
  if (!query.ok()) return Fail(query.status());

  const match::MatchOptions& options = spec->match_options;
  auto matcher =
      match::MakeMatcher(spec->matcher_kind, *repo, spec->factory_options);
  if (!matcher.ok()) return Fail(matcher.status());

  Result<match::AnswerSet> answers = Status::Internal("unreachable");
  match::MatchStats stats;
  if (use_engine) {
    // Run through the batch engine: repository split across a worker pool;
    // costs come from candidate lists over the repository index — every
    // certified target without a budget, else --candidates / --target-bound.
    engine::BatchMatchEngine batch(bopts);
    engine::BatchMatchStats bstats;
    answers = batch.Run(**matcher, *query, *repo, options, &bstats);
    stats = bstats.match;
    if (answers.ok()) {
      std::cout << "engine: " << bstats.shard_count << " shards on "
                << bstats.threads_used << " threads";
      if (bstats.fell_back_to_single_run) {
        // The fallback is a direct run; the budget flags, if given, were
        // ignored — do not print index numbers that never happened.
        std::cout << " (matcher not shardable: single direct run"
                  << (sparse ? ", --candidates/--target-bound ignored" : "")
                  << ")";
      } else {
        std::cout << ", precompute " << bstats.precompute_seconds
                  << "s, index+candidates " << bstats.index_seconds
                  << "s (provably complete cells: "
                  << FormatDouble(bstats.provably_complete_fraction * 100.0,
                                  1)
                  << "%)";
        PrintAdaptiveStats(bstats);
      }
      std::cout << ", match " << bstats.match_seconds << "s\n";
    }
  } else {
    answers = (*matcher)->Match(*query, *repo, options, &stats);
    if (answers.ok() && bopts.global_top_k > 0) {
      answers = answers->TopN(bopts.global_top_k);
    }
  }
  if (!answers.ok()) return Fail(answers.status());
  if (Status st = eval::WriteAnswerSetFile(out_path, *answers); !st.ok()) {
    return Fail(st);
  }
  std::cout << spec->matcher_kind << " matcher: " << answers->size()
            << " answers (Δ ≤ " << options.delta_threshold << "), ";
  PrintMatchStats(stats);
  std::cout << " -> " << out_path << "\n";
  return 0;
}

int CmdWorkload(const CommandLine& cl) {
  std::string repo_dir = cl.Get("repo");
  std::string queries_dir = cl.Get("queries");
  if (repo_dir.empty() || queries_dir.empty()) {
    return Fail(Status::InvalidArgument("--repo and --queries required"));
  }
  auto spec = serve::ParseServiceSpec(cl);
  if (!spec.ok()) return Fail(spec.status());

  // Every query*.txt in the queries directory is one matching problem.
  std::vector<fs::path> query_files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queries_dir, ec)) {
    const std::string filename = entry.path().filename().string();
    if (filename.rfind("query", 0) == 0 &&
        entry.path().extension() == ".txt") {
      query_files.push_back(entry.path());
    }
  }
  if (ec) {
    return Fail(Status::IOError("cannot list directory " + queries_dir +
                                ": " + ec.message()));
  }
  std::sort(query_files.begin(), query_files.end());
  if (query_files.empty()) {
    return Fail(Status::NotFound("no query*.txt files in " + queries_dir));
  }
  std::vector<eval::MatchingProblem> problems;
  for (const fs::path& file : query_files) {
    auto text = io::ReadTextFile(file.string());
    if (!text.ok()) return Fail(text.status());
    auto query = schema::ParseSchemaText(*text);
    if (!query.ok()) {
      return Fail(query.status().WithContext("while parsing " +
                                             file.string()));
    }
    eval::MatchingProblem problem;
    problem.name = file.filename().string();
    problem.query = *std::move(query);
    problems.push_back(std::move(problem));
  }

  // Prepare once, exactly as `serve` opens its first generation: load the
  // snapshot when it exists (a corrupt or mismatched one is fatal, never
  // a silent rebuild), otherwise build and — with --snapshot — save it.
  const std::string snapshot_path = cl.Get("snapshot");
  auto opened = serve::OpenServingIndex(repo_dir, snapshot_path,
                                        spec->index_options(),
                                        /*generation=*/1);
  if (!opened.ok()) return Fail(opened.status());
  const serve::ServingIndex& served = **opened;
  const match::MatchOptions& options = spec->match_options;
  const engine::BatchMatchOptions& engine_options = spec->engine_options;
  const bool bound_driven = spec->bound_driven();

  eval::IndexedWorkloadOptions wopts;
  wopts.engine_options = engine_options;
  wopts.compare_dense = cl.Has("compare-dense");
  auto result = eval::RunIndexedWorkload(*served.matcher, problems,
                                         *served.prepared, options, wopts);
  if (!result.ok()) return Fail(result.status());

  std::cout << result->system_name << " over " << problems.size()
            << " queries (simd="
            << sim::SimdTierName(sim::ActiveSimdTier()) << "), ";
  // The run above refuses an engine configuration without a policy.
  const index::AdaptiveCandidatePolicy& policy = *engine_options.adaptive;
  if (bound_driven) {
    std::cout << "target bound = "
              << FormatDouble(policy.min_provable_completeness, 2)
              << " (C grows from " << policy.initial_limit << ")";
  } else {
    std::cout << "C = " << policy.initial_limit;
  }
  std::cout << "; ";
  if (served.source == "snapshot") {
    std::cout << "index loaded from snapshot in "
              << FormatDouble(served.load_seconds * 1e3, 2) << " ms\n";
  } else {
    std::cout << "index built once in "
              << FormatDouble(served.build_seconds * 1e3, 2) << " ms";
    if (!snapshot_path.empty()) {
      std::cout << ", snapshot saved in "
                << FormatDouble(served.save_seconds * 1e3, 2) << " ms";
    }
    std::cout << "\n";
  }
  std::vector<std::string> headers = {"query", "answers", "sparse ms",
                                      "complete%"};
  if (bound_driven) {
    headers.insert(headers.end(), {"budget", "escalated", "rounds"});
  }
  if (wopts.compare_dense) {
    headers.insert(headers.end(),
                   {"dense ms", "speedup", "recall", "top-1"});
  }
  TextTable table(headers);
  double sparse_total = 0.0, dense_total = 0.0;
  for (const eval::QueryRunReport& report : result->reports) {
    sparse_total += report.sparse_seconds;
    dense_total += report.dense_seconds;
    std::vector<std::string> row = {
        report.name, std::to_string(report.sparse_answers),
        FormatDouble(report.sparse_seconds * 1e3, 2),
        FormatDouble(report.provably_complete_fraction * 100.0, 1)};
    if (bound_driven) {
      row.push_back(std::to_string(report.budget_spent));
      row.push_back(std::to_string(report.cells_escalated));
      row.push_back(std::to_string(report.adaptive_rounds));
    }
    if (wopts.compare_dense) {
      row.push_back(FormatDouble(report.dense_seconds * 1e3, 2));
      row.push_back(report.sparse_seconds > 0.0
                        ? FormatDouble(report.dense_seconds /
                                           report.sparse_seconds,
                                       2)
                        : "-");
      row.push_back(FormatDouble(report.answer_recall, 3));
      row.push_back(report.top_answer_retained ? "yes" : "NO");
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "per-query latency: sparse "
            << FormatDouble(sparse_total * 1e3 /
                                static_cast<double>(problems.size()),
                            2)
            << " ms mean";
  if (wopts.compare_dense) {
    std::cout << ", dense "
              << FormatDouble(dense_total * 1e3 /
                                  static_cast<double>(problems.size()),
                              2)
              << " ms mean; recall of dense answers "
              << FormatDouble(result->mean_answer_recall, 3)
              << ", dense top-1 retained in "
              << FormatDouble(result->top_answer_recall * 100.0, 1)
              << "% of queries";
  }
  std::cout << "\nworkload totals: ";
  PrintMatchStats(result->stats);
  if (bound_driven) {
    std::cout << "; mean certified bound "
              << FormatDouble(result->mean_provable_completeness * 100.0, 1)
              << "%, total budget " << result->total_budget_spent
              << " candidates scored";
  }
  std::cout << "\n";

  // Bound-vs-cost report: sweep fixed candidate budgets over the same
  // workload and print certified completeness against candidates
  // generated — the static curve the adaptive policy walks per cell.
  std::string sweep_arg = cl.Get("budget-sweep");
  if (!sweep_arg.empty()) {
    std::vector<size_t> limits;
    for (const std::string& piece : Split(sweep_arg, ',')) {
      const std::string trimmed(Trim(piece));
      // Digits only: rejects signs (strtoull would silently wrap "-8")
      // and empty fields; the length cap rejects values that overflow.
      const bool digits =
          !trimmed.empty() && trimmed.size() <= 9 &&
          std::all_of(trimmed.begin(), trimmed.end(),
                      [](unsigned char c) { return std::isdigit(c); });
      if (!digits) {
        return Fail(Status::InvalidArgument(
            "--budget-sweep expects comma-separated positive integers "
            "(at most 9 digits), got '" + piece + "'"));
      }
      limits.push_back(static_cast<size_t>(std::strtoull(
          trimmed.c_str(), nullptr, 10)));
    }
    index::CandidateGenerator generator(&*served.prepared, options.objective);
    auto probe = [&](size_t limit) -> Result<bounds::BudgetCurvePoint> {
      bounds::BudgetCurvePoint point;
      SteadyClock::time_point t0 = SteadyClock::now();
      for (const eval::MatchingProblem& problem : problems) {
        SMB_ASSIGN_OR_RETURN(index::QueryCandidates generated,
                             generator.Generate(problem.query, limit));
        point.candidates_generated += generated.candidates_generated();
        point.provably_complete_fraction +=
            generated.ProvablyCompleteFraction(options.delta_threshold);
      }
      point.provably_complete_fraction /=
          static_cast<double>(problems.size());
      point.seconds = SecondsSince(t0);
      return point;
    };
    auto curve = bounds::SweepBudgetCurve(limits, probe);
    if (!curve.ok()) return Fail(curve.status());
    TextTable sweep_table({"C", "candidates", "certified%", "gen ms"});
    for (const bounds::BudgetCurvePoint& point : curve->points) {
      sweep_table.AddRow(
          {std::to_string(point.candidate_limit),
           std::to_string(point.candidates_generated),
           FormatDouble(point.provably_complete_fraction * 100.0, 1),
           FormatDouble(point.seconds * 1e3, 2)});
    }
    std::cout << "bound-vs-cost sweep (Δ ≤ " << options.delta_threshold
              << "):\n";
    sweep_table.Print(std::cout);
    if (bound_driven) {
      const size_t smallest =
          curve->SmallestLimitAchieving(policy.min_provable_completeness);
      std::cout << "smallest swept C meeting the target bound: "
                << (smallest > 0 ? std::to_string(smallest)
                                 : std::string("none"))
                << "\n";
    }
  }

  std::string out_dir = cl.Get("out-dir");
  if (!out_dir.empty()) {
    fs::create_directories(out_dir, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create " + out_dir + ": " +
                                  ec.message()));
    }
    for (size_t i = 0; i < result->answers.size(); ++i) {
      std::string path =
          out_dir + "/answers-" + StrFormat("%04zu", i) + ".csv";
      if (Status st = eval::WriteAnswerSetFile(path, result->answers[i]);
          !st.ok()) {
        return Fail(st);
      }
      if (wopts.compare_dense) {
        path = out_dir + "/dense-" + StrFormat("%04zu", i) + ".csv";
        if (Status st =
                eval::WriteAnswerSetFile(path, result->dense_answers[i]);
            !st.ok()) {
          return Fail(st);
        }
      }
    }
    std::cout << "wrote " << result->answers.size() << " answer file(s)"
              << (wopts.compare_dense ? " (+ dense counterparts)" : "")
              << " to " << out_dir << "\n";
  }
  return 0;
}

/// Parses a `--listen` spec: `HOST:PORT`, `:PORT` (any of the supported
/// hosts defaults to 127.0.0.1) or a bare `PORT`.
Result<std::pair<std::string, uint16_t>> ParseListenAddress(
    const std::string& spec) {
  std::string host = "127.0.0.1";
  std::string port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port > 65535) {
    return Status::InvalidArgument("bad --listen port '" + port_text +
                                   "' (expected HOST:PORT, :PORT or PORT)");
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

/// The offline mode: one request line in, one response line out, all
/// through the same MatchService the network server uses, always at
/// pressure 0 (offline runs never shed).
int RunOfflineServe(serve::MatchService& service, std::istream& in) {
  std::string line;
  uint64_t served = 0;
  uint64_t failed = 0;
  while (std::getline(in, line)) {
    if (serve::IsIgnorableLine(line)) continue;
    auto request = serve::ParseRequestLine(line);
    if (!request.ok()) {
      std::cout << serve::FormatErrorResponse("-", request.status())
                << std::endl;
      ++failed;
      continue;
    }
    if (request->kind == serve::RequestKind::kQuit) break;
    if (request->kind == serve::RequestKind::kStats) {
      const auto index = service.index();
      std::cout << "stats generation=" << index->generation
                << " served=" << served << serve::FormatCacheFields(service)
                << " index_source=" << index->source
                << " simd=" << sim::SimdTierName(sim::ActiveSimdTier())
                << std::endl;
      continue;
    }
    if (request->kind == serve::RequestKind::kReload) {
      auto swapped = service.Reload(request->snapshot_path,
                                    request->repo_dir);
      if (swapped.ok()) {
        std::cout << serve::FormatReloadResponse(**swapped) << std::endl;
      } else {
        std::cout << serve::FormatErrorResponse(request->snapshot_path,
                                                swapped.status())
                  << std::endl;
        ++failed;
      }
      continue;
    }
    auto response = service.Execute(*request, /*pressure=*/0.0);
    if (response.ok()) {
      std::cout << serve::FormatMatchResponse(*response) << std::endl;
      ++served;
    } else {
      std::cout << serve::FormatErrorResponse(request->query_path,
                                              response.status())
                << std::endl;
      ++failed;
    }
  }
  std::cout << "bye served=" << served << " failed=" << failed << std::endl;
  return failed == 0 ? 0 : 1;
}

/// The network mode: start the concurrent server, then block until
/// SIGTERM/SIGINT and drain gracefully. Signals are blocked before the
/// server spawns its threads, so only this thread's sigwait sees them.
int RunNetworkServe(serve::MatchService& service,
                    const std::string& listen_spec, size_t workers,
                    size_t queue_depth, double deadline_ms,
                    size_t max_line_bytes, const std::string& startup_stages,
                    SteadyClock::time_point startup_begin) {
  auto address = ParseListenAddress(listen_spec);
  if (!address.ok()) return Fail(address.status());

  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::MatchServerConfig config;
  config.host = address->first;
  config.port = address->second;
  config.workers = workers;
  config.queue_depth = queue_depth;
  config.default_deadline_ms = deadline_ms;
  config.max_line_bytes = max_line_bytes;
  const SteadyClock::time_point listen_begin = SteadyClock::now();
  serve::MatchServer server(&service, config);
  if (Status st = server.Start(); !st.ok()) return Fail(st);
  std::cerr << "startup " << startup_stages << " listen_ms="
            << FormatDouble(SecondsSince(listen_begin) * 1e3, 3)
            << " total_ms="
            << FormatDouble(SecondsSince(startup_begin) * 1e3, 3)
            << std::endl;
  std::cout << "listening=" << config.host << ":" << server.port()
            << " workers=" << workers << " queue=" << queue_depth
            << " simd=" << sim::SimdTierName(sim::ActiveSimdTier())
            << std::endl;

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::cout << "draining signal="
            << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
            << std::endl;
  server.RequestDrain();
  server.Wait();
  const serve::ServerStatsSnapshot stats = server.stats();
  // `dropped` counts admitted-but-unanswered requests; the drain protocol
  // makes it 0 by construction, and CI asserts exactly that.
  std::cout << "drained served=" << stats.served
            << " failed=" << stats.failed << " shed=" << stats.shed
            << " dropped=" << stats.in_flight << std::endl;
  return 0;
}

int CmdServe(const CommandLine& cl) {
  const SteadyClock::time_point startup_begin = SteadyClock::now();
  std::string repo_dir = cl.Get("repo");
  if (repo_dir.empty()) {
    return Fail(Status::InvalidArgument("--repo required"));
  }
  const std::string listen_spec = cl.Get("listen");
  const std::string requests_path = cl.Get("requests");
  if (listen_spec.empty() == requests_path.empty()) {
    return Fail(Status::InvalidArgument(
        listen_spec.empty()
            ? "serve needs --listen=HOST:PORT (network mode) or "
              "--requests=FILE (offline replay)"
            : "--requests (offline replay) and --listen (network mode) are "
              "mutually exclusive; replay against a live server with "
              "`matchbounds client`"));
  }
  auto spec = serve::ParseServiceSpec(cl);
  if (!spec.ok()) return Fail(spec.status());

  // Network-mode flags.
  auto workers = cl.GetUint("workers", 2);
  auto queue_depth = cl.GetUint("queue-depth", 16);
  auto deadline_ms = cl.GetDouble("deadline-ms", 0.0);
  auto max_line_bytes =
      cl.GetUint("max-line-bytes", serve::kDefaultMaxLineBytes);
  if (!workers.ok()) return Fail(workers.status());
  if (!queue_depth.ok()) return Fail(queue_depth.status());
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  if (!max_line_bytes.ok()) return Fail(max_line_bytes.status());

  std::ifstream request_file;
  if (!requests_path.empty()) {
    request_file.open(requests_path);
    if (!request_file) {
      return Fail(Status::IOError("cannot open request file " +
                                  requests_path));
    }
  }

  // Open generation 1: load the snapshot when one exists (with the `.bak`
  // fallback), otherwise build and (with --snapshot) persist for the next
  // start. A snapshot that exists but does not load cleanly from either
  // file is fatal — serving from a wrong index is the one failure mode
  // this command must never have. Every `reload` reuses the spec's index
  // options verbatim.
  std::string snapshot_path = cl.Get("snapshot");
  const SteadyClock::time_point open_begin = SteadyClock::now();
  auto index = serve::OpenServingIndex(repo_dir, snapshot_path,
                                       spec->index_options(),
                                       /*generation=*/1);
  if (!index.ok()) return Fail(index.status());
  const double open_seconds = SecondsSince(open_begin);
  const SteadyClock::time_point service_begin = SteadyClock::now();
  if (!(*index)->warning.empty()) {
    std::cout << "warning " << (*index)->warning << std::endl;
  }
  // One service for either mode: the offline loop and every network
  // worker execute requests through the same shared generation.
  serve::BuiltMatchService built =
      serve::BuildMatchService(*spec, *index, repo_dir);

  const bool loaded = (*index)->source == "snapshot";
  std::cout << "ready " << spec->matcher_kind
            << " repo=" << (*index)->repo.schema_count() << " schemas/"
            << (*index)->repo.total_elements() << " elements"
            << " simd=" << sim::SimdTierName(sim::ActiveSimdTier())
            << (spec->bound_driven()
                    ? " target_bound=" +
                          FormatDouble(spec->engine_options.policy()
                                           .min_provable_completeness,
                                       2)
                    : " C=" + std::to_string(
                                  spec->engine_options.adaptive->initial_limit))
            << " cache=" << spec->cache_capacity << " index="
            << (loaded ? "snapshot load_ms=" +
                             FormatDouble((*index)->load_seconds * 1e3, 2)
                       : "built build_ms=" +
                             FormatDouble((*index)->build_seconds * 1e3, 2) +
                             (snapshot_path.empty()
                                  ? ""
                                  : " save_ms=" +
                                        FormatDouble(
                                            (*index)->save_seconds * 1e3,
                                            2)))
            << std::endl;

  if (!listen_spec.empty()) {
    // Network mode writes its start-up stages to stderr, in ms: the rest of
    // opening the index is fingerprinting, the matcher and any build.
    const serve::ServingIndex& opened = **index;
    auto ms = [](double seconds) { return FormatDouble(seconds * 1e3, 3); };
    const std::string stages =
        "repo_load_ms=" + ms(opened.repo_load_seconds) +
        " snapshot_read_ms=" + ms(opened.snapshot_read_seconds) +
        " snapshot_decode_ms=" + ms(opened.snapshot_decode_seconds) +
        " name_ids_ms=" + ms(opened.name_ids_seconds) +
        " open_rest_ms=" +
        ms(open_seconds - opened.repo_load_seconds -
           opened.snapshot_read_seconds - opened.snapshot_decode_seconds -
           opened.name_ids_seconds) +
        " service_ms=" + ms(SecondsSince(service_begin));
    return RunNetworkServe(*built.service, listen_spec,
                           static_cast<size_t>(*workers),
                           static_cast<size_t>(*queue_depth), *deadline_ms,
                           static_cast<size_t>(*max_line_bytes), stages,
                           startup_begin);
  }
  return RunOfflineServe(*built.service, request_file);
}

int CmdClient(const CommandLine& cl) {
  std::string connect_spec = cl.Get("connect");
  std::string requests_path = cl.Get("requests");
  if (connect_spec.empty() || requests_path.empty()) {
    return Fail(
        Status::InvalidArgument("--connect and --requests required"));
  }
  auto address = ParseListenAddress(connect_spec);
  if (!address.ok()) return Fail(address.status());
  auto connections = cl.GetUint("connections", 1);
  auto retries = cl.GetUint("retries", 0);
  auto retry_base_ms = cl.GetDouble("retry-base-ms", 10.0);
  auto retry_max_ms = cl.GetDouble("retry-max-ms", 1000.0);
  auto retry_seed = cl.GetUint("retry-seed", 1);
  if (!connections.ok()) return Fail(connections.status());
  if (!retries.ok()) return Fail(retries.status());
  if (!retry_base_ms.ok()) return Fail(retry_base_ms.status());
  if (!retry_max_ms.ok()) return Fail(retry_max_ms.status());
  if (!retry_seed.ok()) return Fail(retry_seed.status());

  auto requests_text = io::ReadTextFile(requests_path);
  if (!requests_text.ok()) return Fail(requests_text.status());
  std::vector<std::string> request_lines;
  std::istringstream requests_stream(*requests_text);
  std::string line;
  while (std::getline(requests_stream, line)) {
    if (!serve::IsIgnorableLine(line)) request_lines.push_back(line);
  }

  serve::ReplayClientOptions options;
  options.host = address->first;
  options.port = address->second;
  options.connections = static_cast<size_t>(*connections);
  options.max_retries = static_cast<size_t>(*retries);
  options.retry_base_ms = *retry_base_ms;
  options.retry_max_ms = *retry_max_ms;
  options.retry_jitter_seed = *retry_seed;
  auto outcome = serve::ReplayRequests(options, request_lines);
  if (!outcome.ok()) return Fail(outcome.status());
  for (const std::string& response : outcome->responses) {
    std::cout << response << "\n";
  }
  std::cout << "replayed " << request_lines.size() << " request(s) on "
            << options.connections << " connection(s): ok="
            << outcome->ok_count << " err=" << outcome->err_count
            << " shed=" << outcome->shed_count
            << " retries=" << outcome->retries
            << " reconnects=" << outcome->reconnects << std::endl;
  return outcome->err_count == 0 ? 0 : 1;
}

int CmdCurve(const CommandLine& cl) {
  std::string answers_path = cl.Get("answers");
  std::string truth_path = cl.Get("truth");
  std::string out_path = cl.Get("out");
  if (answers_path.empty() || truth_path.empty() || out_path.empty()) {
    return Fail(
        Status::InvalidArgument("--answers, --truth and --out required"));
  }
  auto answers = eval::ReadAnswerSetFile(answers_path);
  if (!answers.ok()) return Fail(answers.status());
  auto truth_text = io::ReadTextFile(truth_path);
  if (!truth_text.ok()) return Fail(truth_text.status());
  auto truth = eval::ReadGroundTruthCsv(*truth_text);
  if (!truth.ok()) return Fail(truth.status());

  auto max = cl.GetDouble("max", 0.25);
  auto step = cl.GetDouble("step", 0.01);
  if (!max.ok()) return Fail(max.status());
  if (!step.ok()) return Fail(step.status());
  auto curve = eval::PrCurve::Measure(*answers, *truth,
                                      eval::UniformThresholds(*max, *step));
  if (!curve.ok()) return Fail(curve.status());
  if (Status st = bounds::WritePrCurveFile(out_path, *curve); !st.ok()) {
    return Fail(st);
  }
  std::cout << "measured " << curve->size() << " curve points (|H| = "
            << curve->total_correct() << ") -> " << out_path << "\n";
  return 0;
}

int CmdBounds(const CommandLine& cl) {
  Result<bounds::BoundsInput> input = Status::Internal("unreachable");
  if (cl.Has("input")) {
    input = bounds::ReadBoundsInputFile(cl.Get("input"));
  } else {
    std::string curve_path = cl.Get("curve");
    std::string s2_path = cl.Get("s2");
    if (curve_path.empty() || s2_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--curve and --s2 (or --input) required"));
    }
    auto curve = bounds::ReadPrCurveFile(curve_path);
    if (!curve.ok()) return Fail(curve.status());
    auto s2 = eval::ReadAnswerSetFile(s2_path);
    if (!s2.ok()) return Fail(s2.status());
    std::vector<double> thresholds;
    for (const auto& p : curve->points()) thresholds.push_back(p.threshold);
    input = bounds::InputFromMeasuredCurve(*curve, s2->SizesAt(thresholds));
  }
  if (!input.ok()) return Fail(input.status());

  auto report = bounds::ComputeBoundsReport(*input);
  if (!report.ok()) return Fail(report.status());

  TextTable table({"δ", "Â", "worst P", "best P", "rand P", "worst R",
                   "best R", "worst F1", "best F1"});
  for (const auto& point : report->incremental.points) {
    bounds::F1Bounds f1 = bounds::F1BoundsAt(point);
    table.AddRow({FormatDouble(point.threshold, 3),
                  FormatDouble(point.ratio, 3),
                  FormatDouble(point.worst.precision, 3),
                  FormatDouble(point.best.precision, 3),
                  FormatDouble(point.random.precision, 3),
                  FormatDouble(point.worst.recall, 3),
                  FormatDouble(point.best.recall, 3),
                  FormatDouble(f1.worst, 3), FormatDouble(f1.best, 3)});
  }
  table.Print(std::cout);

  auto min_precision = cl.GetDouble("precision", 0.5);
  if (!min_precision.ok()) return Fail(min_precision.status());
  std::cout << "\nguaranteed worst-case precision ≥ " << *min_precision
            << " up to recall "
            << FormatDouble(bounds::GuaranteedRecallAt(report->incremental,
                                                       *min_precision),
                            3)
            << "\n";
  return 0;
}

int CmdStats(const CommandLine& cl) {
  std::string repo_dir = cl.Get("repo");
  if (repo_dir.empty()) {
    return Fail(Status::InvalidArgument("--repo required"));
  }
  auto repo = schema::LoadRepositoryDir(repo_dir);
  if (!repo.ok()) return Fail(repo.status());
  schema::PrintStats(schema::ComputeStats(*repo), std::cout);
  return 0;
}

/// Stream-vocabulary knobs shared by `trace` (query derivation) and the
/// synth mode of `loadtest` (repository + queries). The two commands must
/// agree on these (and --seed) for a standalone trace's queries to hit the
/// loadtest repository's vocabulary.
Result<synth::StreamOptions> ParseStreamFlags(const CommandLine& cl,
                                              uint64_t default_schemas) {
  synth::StreamOptions options;
  SMB_ASSIGN_OR_RETURN(options.num_schemas,
                       cl.GetUint("schemas", default_schemas));
  SMB_ASSIGN_OR_RETURN(uint64_t vocab, cl.GetUint("vocab", 512));
  SMB_ASSIGN_OR_RETURN(uint64_t min_elems, cl.GetUint("min-elements", 6));
  SMB_ASSIGN_OR_RETURN(uint64_t max_elems, cl.GetUint("max-elements", 14));
  SMB_ASSIGN_OR_RETURN(options.zipf_exponent,
                       cl.GetDouble("zipf-name", 1.1));
  SMB_ASSIGN_OR_RETURN(options.typed_leaf_fraction,
                       cl.GetDouble("typed-fraction", 0.6));
  SMB_ASSIGN_OR_RETURN(options.seed, cl.GetUint("seed", 1));
  options.vocabulary_size = static_cast<size_t>(vocab);
  options.min_schema_elements = static_cast<size_t>(min_elems);
  options.max_schema_elements = static_cast<size_t>(max_elems);
  return options;
}

/// Parses `--target-mix=0.8,0.9,1.0` (empty flag = empty mix).
Result<std::vector<double>> ParseTargetMixFlag(const CommandLine& cl) {
  std::vector<double> mix;
  const std::string raw = cl.Get("target-mix");
  if (raw.empty()) return mix;
  for (const std::string& piece : Split(raw, ',')) {
    char* end = nullptr;
    const double bound = std::strtod(piece.c_str(), &end);
    if (end == piece.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad --target-mix entry '" + piece +
                                     "'");
    }
    mix.push_back(bound);
  }
  return mix;
}

/// Parses `--classes=interactive:3:50,batch:1:0` (name:weight:deadline_ms).
Result<std::vector<eval::TraceClassSpec>> ParseClassesFlag(
    const CommandLine& cl) {
  std::vector<eval::TraceClassSpec> classes;
  const std::string raw = cl.Get("classes");
  if (raw.empty()) return classes;
  for (const std::string& piece : Split(raw, ',')) {
    const std::vector<std::string> fields = Split(piece, ':');
    if (fields.size() != 3 || fields[0].empty()) {
      return Status::InvalidArgument(
          "bad --classes entry '" + piece +
          "' (expected NAME:WEIGHT:DEADLINE_MS)");
    }
    eval::TraceClassSpec cls;
    cls.name = fields[0];
    char* end = nullptr;
    cls.weight = std::strtod(fields[1].c_str(), &end);
    if (end == fields[1].c_str() || *end != '\0' || cls.weight <= 0.0) {
      return Status::InvalidArgument("bad class weight '" + fields[1] + "'");
    }
    cls.deadline_ms = std::strtod(fields[2].c_str(), &end);
    if (end == fields[2].c_str() || *end != '\0' || cls.deadline_ms < 0.0) {
      return Status::InvalidArgument("bad class deadline '" + fields[2] +
                                     "'");
    }
    classes.push_back(std::move(cls));
  }
  return classes;
}

int CmdTrace(const CommandLine& cl) {
  std::string out_dir = cl.Get("out");
  if (out_dir.empty()) return Fail(Status::InvalidArgument("--out required"));
  // The repository itself is not generated here — only its vocabulary, so
  // the derived queries are realistic for a loadtest run with the same
  // stream flags and seed.
  auto stream_options = ParseStreamFlags(cl, /*default_schemas=*/2000);
  if (!stream_options.ok()) return Fail(stream_options.status());
  auto num_queries = cl.GetUint("queries", 16);
  auto query_elements = cl.GetUint("query-elements", 5);
  if (!num_queries.ok()) return Fail(num_queries.status());
  if (!query_elements.ok()) return Fail(query_elements.status());
  if (*num_queries == 0) {
    return Fail(Status::InvalidArgument("--queries must be > 0"));
  }

  eval::TraceGenOptions trace_options;
  auto requests = cl.GetUint("requests", 1000);
  auto zipf_query = cl.GetDouble("zipf-query", 1.0);
  auto rate_qps = cl.GetDouble("rate-qps", 200.0);
  auto classes = ParseClassesFlag(cl);
  auto target_mix = ParseTargetMixFlag(cl);
  if (!requests.ok()) return Fail(requests.status());
  if (!zipf_query.ok()) return Fail(zipf_query.status());
  if (!rate_qps.ok()) return Fail(rate_qps.status());
  if (!classes.ok()) return Fail(classes.status());
  if (!target_mix.ok()) return Fail(target_mix.status());
  trace_options.num_requests = *requests;
  trace_options.zipf_exponent = *zipf_query;
  trace_options.arrival_rate_qps = *rate_qps;
  trace_options.classes = *classes;
  trace_options.target_mix = *target_mix;
  trace_options.seed = stream_options->seed;

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    return Fail(Status::IOError("cannot create " + out_dir + ": " +
                                ec.message()));
  }
  auto stream = synth::SchemaStream::Create(*stream_options);
  if (!stream.ok()) return Fail(stream.status());
  std::vector<std::string> query_files;
  Rng query_rng(stream_options->seed ^ 0x632BE59BD9B4E019ULL);
  for (uint64_t q = 0; q < *num_queries; ++q) {
    auto query = stream->GenerateQuery(
        static_cast<size_t>(*query_elements), &query_rng);
    if (!query.ok()) return Fail(query.status());
    const std::string file = "q" + std::to_string(q) + ".txt";
    if (Status st = io::WriteTextFile(out_dir + "/" + file,
                                      schema::WriteSchemaText(*query));
        !st.ok()) {
      return Fail(st);
    }
    query_files.push_back(file);
  }
  auto trace = eval::GenerateTrace(query_files, trace_options);
  if (!trace.ok()) return Fail(trace.status());
  const std::string trace_path = out_dir + "/trace.smbtrace";
  if (Status st = eval::SaveTrace(trace_path, *trace); !st.ok()) {
    return Fail(st);
  }
  const eval::TraceRequest& last = trace->requests.back();
  std::cout << "wrote " << query_files.size() << " query files and "
            << trace->requests.size() << " requests over "
            << FormatDouble(last.arrival_us / 1e6, 2) << "s ("
            << trace->classes.size() << " class(es), "
            << (trace_options.target_mix.empty()
                    ? std::string("server-default targets")
                    : std::to_string(trace_options.target_mix.size()) +
                          " target bound(s)")
            << ") to " << trace_path << "\n";
  return 0;
}

/// Shared tail of the trace-replay modes: replay, print, optional CSV/JSON.
int FinishReplay(const CommandLine& cl, const eval::WorkloadTrace& trace,
                 eval::TraceExecutor* executor, const std::string& policy) {
  eval::ReplayOptions replay_options;
  auto replay_threads = cl.GetUint("replay-threads", 4);
  auto speed = cl.GetDouble("speed", 1.0);
  if (!replay_threads.ok()) return Fail(replay_threads.status());
  if (!speed.ok()) return Fail(speed.status());
  replay_options.num_threads = static_cast<size_t>(*replay_threads);
  replay_options.speed = *speed;
  replay_options.open_loop = cl.Has("open-loop");
  auto report = eval::ReplayTrace(trace, executor, replay_options);
  if (!report.ok()) return Fail(report.status());
  eval::PrintReplayReport(std::cout, *report);
  const std::string csv_path = cl.Get("csv");
  if (!csv_path.empty()) {
    std::ostringstream csv;
    eval::WriteBudgetBoundCsv(csv, *report);
    if (Status st = io::WriteTextFile(csv_path, csv.str()); !st.ok()) {
      return Fail(st);
    }
  }
  const std::string json_path = cl.Get("json");
  if (!json_path.empty()) {
    harness::ExperimentResult result;
    result.name = cl.Get("label", "replay");
    result.policy = policy;
    result.report = *std::move(report);
    if (Status st = io::WriteTextFile(
            json_path, harness::FormatBatchBenchJson({std::move(result)}));
        !st.ok()) {
      return Fail(st);
    }
  }
  return 0;
}

int CmdLoadtest(const CommandLine& cl) {
  // Mode 1: declarative sweep / synth single run through the batch runner.
  const std::string batch_path = cl.Get("batch");
  const std::string trace_path = cl.Get("trace");
  if (trace_path.empty()) {
    const std::string work_dir = cl.Get("work-dir");
    if (work_dir.empty()) {
      return Fail(Status::InvalidArgument(
          "--work-dir required (scratch for generated queries/traces)"));
    }
    eval::ExperimentBatch batch;
    if (!batch_path.empty()) {
      auto loaded = eval::LoadExperimentBatch(batch_path);
      if (!loaded.ok()) return Fail(loaded.status());
      batch = *std::move(loaded);
    } else {
      batch.experiments.push_back(harness::ExperimentFromCommandLine(cl));
    }
    harness::BatchRunOptions run_options;
    run_options.work_dir = work_dir;
    run_options.csv_path = cl.Get("csv");
    run_options.json_path = cl.Get("json");
    run_options.keep_answers = cl.Has("keep-answers");
    run_options.log = &std::cout;
    auto results = harness::RunExperimentBatch(batch, run_options);
    if (!results.ok()) return Fail(results.status());
    std::cout << "ran " << results->size() << " experiment(s)";
    if (!run_options.csv_path.empty()) {
      std::cout << ", csv=" << run_options.csv_path;
    }
    if (!run_options.json_path.empty()) {
      std::cout << ", json=" << run_options.json_path;
    }
    std::cout << "\n";
    return 0;
  }

  // Modes 2/3: replay an existing trace file, offline or live.
  if (!batch_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--batch and --trace are mutually exclusive"));
  }
  auto trace = eval::LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  std::string trace_dir = cl.Get("trace-dir");
  if (trace_dir.empty()) {
    trace_dir = fs::path(trace_path).parent_path().string();
    if (trace_dir.empty()) trace_dir = ".";
  }
  const std::string answers_dir = cl.Get("answers-dir");
  if (!answers_dir.empty()) {
    std::error_code ec;
    fs::create_directories(answers_dir, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create --answers-dir " +
                                  answers_dir + ": " + ec.message()));
    }
  }
  harness::TraceBindings bindings =
      harness::ResolveTraceBindings(*trace, trace_dir, answers_dir);

  const std::string connect_spec = cl.Get("connect");
  if (!connect_spec.empty()) {
    auto address = ParseListenAddress(connect_spec);
    if (!address.ok()) return Fail(address.status());
    harness::LiveTraceExecutor executor(address->first, address->second,
                                        std::move(bindings));
    return FinishReplay(cl, *trace, &executor, "live");
  }

  const std::string repo_dir = cl.Get("repo");
  if (repo_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "--trace replay needs --repo=DIR (in-process) or "
        "--connect=HOST:PORT (live)"));
  }
  // The in-process service is built exactly like `matchbounds serve`'s.
  auto spec = serve::ParseServiceSpec(cl);
  if (!spec.ok()) return Fail(spec.status());
  auto index = serve::OpenServingIndex(repo_dir, cl.Get("snapshot"),
                                       spec->index_options(),
                                       /*generation=*/1);
  if (!index.ok()) return Fail(index.status());
  serve::BuiltMatchService built =
      serve::BuildMatchService(*spec, *std::move(index), repo_dir);
  harness::InProcessTraceExecutor executor(built.service.get(),
                                           std::move(bindings));
  return FinishReplay(cl, *trace, &executor,
                      spec->bound_driven() ? "target" : "fixed");
}

}  // namespace

int main(int argc, char** argv) {
  // SMB_FAULTS=<spec> arms the deterministic fault-injection registry for
  // the whole process (see io/fault_injection.h); unset = zero cost.
  if (Status st = smb::io::FaultInjector::Instance().ConfigureFromEnv();
      !st.ok()) {
    return Fail(st);
  }
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) return Fail(cl.status());
  const std::string& command = cl->command();
  if (command == "generate") return CmdGenerate(*cl);
  if (command == "match") return CmdMatch(*cl);
  if (command == "workload") return CmdWorkload(*cl);
  if (command == "serve") return CmdServe(*cl);
  if (command == "client") return CmdClient(*cl);
  if (command == "curve") return CmdCurve(*cl);
  if (command == "bounds") return CmdBounds(*cl);
  if (command == "stats") return CmdStats(*cl);
  if (command == "trace") return CmdTrace(*cl);
  if (command == "loadtest") return CmdLoadtest(*cl);
  PrintUsage();
  return command.empty() || command == "help" ? 0 : 1;
}
