#pragma once

#include <string>

#include "common/result.h"
#include "index/candidate_generator.h"
#include "match/answer_set.h"
#include "match/matcher.h"
#include "match/objective.h"
#include "schema/repository.h"
#include "schema/schema.h"

/// \file fixtures.h
/// \brief Small hand-built schemas shared by matcher and eval tests, a
/// whole-repository run over a caller-built objective, and the fixed-C
/// candidate policy.

namespace smb::testing {

/// Query: order { orderId :string, customer }  (3 elements)
inline schema::Schema MakeQuery() {
  schema::Schema q("query");
  auto root = q.AddRoot("order").value();
  q.AddChild(root, "orderId", "string").value();
  q.AddChild(root, "customer").value();
  return q;
}

/// A repository schema containing an exact copy of the query under a
/// wrapper, plus noise elements. The exact-copy mapping has Δ = 0.
/// Layout (pre-order ids in comments):
///   store            (0)
///     order          (1)   <- copy root
///       orderId      (2)   <- :string
///       customer     (3)
///     inventory      (4)
///       product      (5)
inline schema::Schema MakeHostWithExactCopy() {
  schema::Schema s("host-exact");
  auto root = s.AddRoot("store").value();
  auto order = s.AddChild(root, "order").value();
  s.AddChild(order, "orderId", "string").value();
  s.AddChild(order, "customer").value();
  auto inv = s.AddChild(root, "inventory").value();
  s.AddChild(inv, "product").value();
  return s;
}

/// A repository schema with a renamed/perturbed copy (synonyms):
///   shop             (0)
///     purchase       (1)   ~ order
///       purchaseId   (2)   ~ orderId
///       client       (3)   ~ customer
///     misc           (4)
inline schema::Schema MakeHostWithSynonymCopy() {
  schema::Schema s("host-synonym");
  auto root = s.AddRoot("shop").value();
  auto purchase = s.AddChild(root, "purchase").value();
  s.AddChild(purchase, "purchaseId", "string").value();
  s.AddChild(purchase, "client").value();
  s.AddChild(root, "misc").value();
  return s;
}

/// A distractor schema with no good mapping.
inline schema::Schema MakeDistractor(const std::string& name) {
  schema::Schema s(name);
  auto root = s.AddRoot("zoo").value();
  auto animals = s.AddChild(root, "animals").value();
  s.AddChild(animals, "giraffe").value();
  s.AddChild(animals, "zebra").value();
  s.AddChild(root, "keeper").value();
  return s;
}

/// Three-schema repository: exact copy, synonym copy, distractor.
inline schema::SchemaRepository MakeRepo() {
  schema::SchemaRepository repo;
  repo.Add(MakeHostWithExactCopy()).value();
  repo.Add(MakeHostWithSynonymCopy()).value();
  repo.Add(MakeDistractor("host-distractor")).value();
  return repo;
}

/// `Matcher::Match` over the costs of a caller-built objective (an attached
/// pool or candidate lists): validates, runs `MatchSchemas` over every
/// schema of `objective.repo()` and finalizes.
inline Result<match::AnswerSet> MatchWithObjective(
    const match::Matcher& matcher, const match::ObjectiveFunction& objective,
    const match::MatchOptions& options, match::MatchStats* stats = nullptr) {
  SMB_RETURN_IF_ERROR(match::Matcher::ValidateInputs(
      objective.query(), objective.repo(), options));
  match::AnswerSet answers;
  SMB_RETURN_IF_ERROR(matcher.MatchSchemas(objective, 0,
                                           objective.repo().schema_count(),
                                           options, &answers, stats));
  answers.Finalize();
  return answers;
}

/// The policy `--candidates=C` parses to: target 0, so no cell escalates
/// and every cell keeps its top `limit` candidates (`Generate(limit)`).
inline index::AdaptiveCandidatePolicy FixedPolicy(size_t limit) {
  return {.min_provable_completeness = 0.0, .initial_limit = limit};
}

}  // namespace smb::testing
