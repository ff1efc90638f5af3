#pragma once

#include <string>
#include <string_view>

#include "common/result.h"
#include "eval/ground_truth.h"
#include "match/answer_set.h"

/// \file answer_set_io.h
/// \brief CSV persistence for answer sets and ground truth.
///
/// Enables the decoupled workflow of the paper: run the matchers where the
/// data lives, dump the ranked answers, and compute effectiveness bounds
/// elsewhere (the bounds need only these files).
///
/// Answer set format:
/// \code
/// #matchbounds=answer_set
/// schema_index,targets,delta
/// 12,3;7;8,0.125
/// \endcode
/// Ground truth format: the same without the delta column
/// (`#matchbounds=ground_truth`).

namespace smb::eval {

/// Serializes a finalized answer set: `#matchbounds=answer_set`,
/// `#count=N`, the header, then one row per mapping with Δ as "%.17g".
/// Written into one buffer with `std::to_chars`; the bytes are those of
/// the generic `io::WriteCsv` document (served answer files of 400k rows
/// are written on the request path).
std::string WriteAnswerSetCsv(const match::AnswerSet& answers);

/// Parses an answer set (finalizes it; re-ranks by Δ).
Result<match::AnswerSet> ReadAnswerSetCsv(std::string_view text);

/// Serializes a ground truth.
std::string WriteGroundTruthCsv(const eval::GroundTruth& truth,
                                const std::vector<match::Mapping::Key>& keys);

/// Parses a ground truth.
Result<eval::GroundTruth> ReadGroundTruthCsv(std::string_view text);

/// \name File variants.
/// @{
Status WriteAnswerSetFile(const std::string& path,
                          const match::AnswerSet& answers);
Result<match::AnswerSet> ReadAnswerSetFile(const std::string& path);
/// @}

}  // namespace smb::eval
