#include "match/matcher.h"

/// \file matcher.cc
/// \brief Input validation and the whole-repository `Match` every matcher
/// shares.

namespace smb::match {

Status Matcher::ValidateInputs(const schema::Schema& query,
                               const schema::SchemaRepository& repo,
                               const MatchOptions& options) {
  if (query.empty()) {
    return Status::InvalidArgument("query schema is empty");
  }
  if (query.size() > options.max_query_elements) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " elements, above the configured maximum of " +
        std::to_string(options.max_query_elements) +
        " (the search space is exponential in the query size)");
  }
  if (repo.schema_count() == 0) {
    return Status::InvalidArgument("repository is empty");
  }
  if (options.delta_threshold < 0.0) {
    return Status::InvalidArgument("delta_threshold must be non-negative");
  }
  SMB_RETURN_IF_ERROR(query.Validate());
  return Status::OK();
}

Result<AnswerSet> Matcher::Match(const schema::Schema& query,
                                 const schema::SchemaRepository& repo,
                                 const MatchOptions& options,
                                 MatchStats* stats) const {
  SMB_RETURN_IF_ERROR(ValidateInputs(query, repo, options));
  ObjectiveFunction objective(&query, &repo, options.objective);
  AnswerSet answers;
  SMB_RETURN_IF_ERROR(MatchSchemas(objective, 0, repo.schema_count(), options,
                                   &answers, stats));
  answers.Finalize();
  return answers;
}

}  // namespace smb::match
