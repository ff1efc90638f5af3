#include "serve/protocol.h"

#include <cstdlib>
#include <sstream>

#include "common/strings.h"
#include "common/table.h"
#include "serve/match_service.h"
#include "serve/serving_index.h"

/// \file protocol.cc
/// \brief Request/response line parsing and formatting.

namespace smb::serve {

namespace {

/// Parses a `key=value` token; false when `token` has no '='.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  key->assign(token, 0, eq);
  value->assign(token, eq + 1, std::string::npos);
  return true;
}

Result<double> ParseDoubleField(const std::string& key,
                                const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::ParseError("bad numeric value '" + value + "' for '" +
                              key + "'");
  }
  return parsed;
}

/// Strips a trailing '%' (the `complete=` convention) before parsing.
Result<double> ParsePercentField(const std::string& key, std::string value) {
  if (!value.empty() && value.back() == '%') value.pop_back();
  SMB_ASSIGN_OR_RETURN(double pct, ParseDoubleField(key, value));
  return pct / 100.0;
}

}  // namespace

bool IsIgnorableLine(const std::string& line) {
  const std::string_view trimmed = Trim(line);
  return trimmed.empty() || trimmed.front() == '#';
}

Result<Request> ParseRequestLine(const std::string& line) {
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  Request request;
  if (tokens[0] == "stats") {
    request.kind = RequestKind::kStats;
    return request;
  }
  if (tokens[0] == "quit") {
    request.kind = RequestKind::kQuit;
    return request;
  }
  if (tokens[0] == "reload") {
    request.kind = RequestKind::kReload;
    if (tokens.size() < 2 || tokens.size() > 3) {
      return Status::InvalidArgument(
          "reload needs a snapshot file: reload <snapshot-file> "
          "[<repo-dir>]");
    }
    request.snapshot_path = tokens[1];
    if (tokens.size() == 3) request.repo_dir = tokens[2];
    return request;
  }
  if (tokens[0] != "match") {
    return Status::InvalidArgument("unknown request '" + tokens[0] +
                                   "' (expected: match|stats|reload|quit)");
  }
  request.kind = RequestKind::kMatch;
  // Positional operands first (query path, optional out path), then
  // key=value options in any order.
  size_t positional = 0;
  for (size_t i = 1; i < tokens.size(); ++i) {
    std::string key, value;
    if (SplitKeyValue(tokens[i], &key, &value)) {
      if (key == "class") {
        if (value.empty()) {
          return Status::InvalidArgument("class= needs a name");
        }
        request.request_class = value;
      } else if (key == "deadline_ms") {
        SMB_ASSIGN_OR_RETURN(request.deadline_ms,
                             ParseDoubleField(key, value));
        if (request.deadline_ms < 0.0) {
          return Status::InvalidArgument("deadline_ms must be >= 0");
        }
      } else if (key == "target") {
        SMB_ASSIGN_OR_RETURN(request.target_bound,
                             ParseDoubleField(key, value));
        if (request.target_bound <= 0.0 || request.target_bound > 1.0) {
          return Status::InvalidArgument("target must be in (0, 1]");
        }
      } else {
        return Status::InvalidArgument(
            "unknown match option '" + key +
            "=' (expected: class=, deadline_ms=, target=)");
      }
    } else if (positional == 0) {
      request.query_path = tokens[i];
      ++positional;
    } else if (positional == 1) {
      request.out_path = tokens[i];
      ++positional;
    } else {
      return Status::InvalidArgument(
          "too many positional operands: match <query-file> "
          "[<answers-out.csv>] [class=NAME] [deadline_ms=N] [target=B]");
    }
  }
  if (request.query_path.empty()) {
    return Status::InvalidArgument(
        "match needs a query file: match <query-file> [<answers-out.csv>] "
        "[class=NAME] [deadline_ms=N] [target=B]");
  }
  return request;
}

std::string FormatMatchResponse(const MatchResponse& response) {
  std::ostringstream out;
  out << "ok " << response.query_path << " answers=" << response.answers
      << " cache=" << (response.cache_hit ? "hit" : "miss")
      << " complete=" << FormatDouble(response.certified * 100.0, 1) << "%";
  if (response.has_target) {
    out << " target=" << FormatDouble(response.target, 2)
        << " shed=" << (response.shed ? "yes" : "no");
  }
  out << " latency_ms=" << FormatDouble(response.latency_ms, 3);
  if (response.has_queue_ms) {
    out << " queue_ms=" << FormatDouble(response.queue_ms, 3);
  }
  if (response.has_engine_detail) {
    out << " index_ms=" << FormatDouble(response.index_ms, 3)
        << " match_ms=" << FormatDouble(response.match_ms, 3);
    if (response.has_adaptive_detail) {
      out << " budget=" << response.budget << " rounds=" << response.rounds;
    }
  }
  return out.str();
}

Result<MatchResponse> ParseMatchResponse(const std::string& line) {
  const std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.size() < 2 || tokens[0] != "ok") {
    return Status::ParseError("not an ok response line: '" + line + "'");
  }
  MatchResponse response;
  response.query_path = tokens[1];
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Status::ParseError("stray token '" + tokens[i] +
                                "' in response line");
    }
    if (key == "answers") {
      response.answers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "cache") {
      response.cache_hit = value == "hit";
    } else if (key == "complete") {
      SMB_ASSIGN_OR_RETURN(response.certified,
                           ParsePercentField(key, value));
    } else if (key == "target") {
      SMB_ASSIGN_OR_RETURN(response.target, ParseDoubleField(key, value));
      response.has_target = true;
    } else if (key == "shed") {
      response.shed = value == "yes";
    } else if (key == "latency_ms") {
      SMB_ASSIGN_OR_RETURN(response.latency_ms,
                           ParseDoubleField(key, value));
    } else if (key == "queue_ms") {
      SMB_ASSIGN_OR_RETURN(response.queue_ms, ParseDoubleField(key, value));
      response.has_queue_ms = true;
    } else if (key == "index_ms") {
      SMB_ASSIGN_OR_RETURN(response.index_ms, ParseDoubleField(key, value));
      response.has_engine_detail = true;
    } else if (key == "match_ms") {
      SMB_ASSIGN_OR_RETURN(response.match_ms, ParseDoubleField(key, value));
      response.has_engine_detail = true;
    } else if (key == "budget") {
      response.budget = std::strtoull(value.c_str(), nullptr, 10);
      response.has_adaptive_detail = true;
    } else if (key == "rounds") {
      response.rounds = std::strtoull(value.c_str(), nullptr, 10);
      response.has_adaptive_detail = true;
    }
    // Unknown fields are ignored: the response format may grow.
  }
  return response;
}

std::string FormatErrorResponse(const std::string& query_path,
                                const Status& status) {
  std::ostringstream out;
  out << "err " << (query_path.empty() ? "-" : query_path) << " " << status;
  return out.str();
}

std::string FormatReloadResponse(const ServingIndex& index) {
  std::ostringstream out;
  out << "reloaded generation=" << index.generation
      << " source=" << index.source
      << " schemas=" << index.repo.schema_count()
      << " load_ms=" << FormatDouble(index.load_seconds * 1e3, 2);
  if (index.used_backup) out << " backup=yes";
  return out.str();
}

std::string FormatRowCacheFields(const ServingIndex& index) {
  const index::NameRowCacheStats stats = index.name_rows->stats();
  std::ostringstream out;
  out << " row_cache_hits=" << stats.hits
      << " row_cache_misses=" << stats.misses
      << " row_cache_evictions=" << stats.evictions
      << " row_cache_bytes=" << stats.bytes;
  return out.str();
}

std::string FormatCacheFields(const MatchService& service) {
  const engine::QueryResultCache& cache = *service.cache();
  const engine::QueryCacheStats stats = cache.stats();
  std::ostringstream out;
  out << " cache_hits=" << stats.hits << " cache_misses=" << stats.misses
      << " cache_evictions=" << stats.evictions
      << " cache_entries=" << stats.entries << "/" << cache.capacity()
      << FormatRowCacheFields(*service.index());
  return out.str();
}

std::map<std::string, std::string> ParseResponseFields(
    const std::string& line) {
  std::map<std::string, std::string> fields;
  for (const std::string& token : SplitWhitespace(line)) {
    std::string key, value;
    if (SplitKeyValue(token, &key, &value)) fields[key] = value;
  }
  return fields;
}

}  // namespace smb::serve
