#include "index/prepared_repository.h"

/// \file prepared_repository.cc
/// \brief One-pass index build: folds/tokenizes every element name into
/// the kernel form, posts tokens, synonym groups and multiset trigrams,
/// and freezes the postings into CSR arrays (see prepared_repository.h
/// for the retrieval model and the admissibility argument).

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/ngram.h"
#include "sim/synonyms.h"

namespace smb::index {

void AppendUniqueTokenGroupPairs(
    const sim::PreparedName& name,
    std::vector<std::pair<uint32_t, int32_t>>* out) {
  out->clear();
  for (size_t t = 0; t < name.token_ids.size(); ++t) {
    out->emplace_back(name.token_ids[t],
                      name.token_groups.empty() ? -1 : name.token_groups[t]);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Result<PreparedRepository> PreparedRepository::Build(
    const schema::SchemaRepository& repo,
    const sim::NameSimilarityOptions& name_options) {
  PreparedRepository prepared;
  prepared.repo_ = &repo;
  prepared.name_options_ = name_options;
  prepared.elements_.reserve(repo.total_elements());
  prepared.first_ordinal_.reserve(repo.schema_count());

  // Postings accumulate into growable per-key containers and are flattened
  // into the CSR arrays once every element is known.
  std::vector<std::vector<uint32_t>> token_postings;
  std::unordered_map<uint32_t, std::vector<TrigramPosting>> trigram_postings;

  // (token id, synonym group) pairs of the current element, deduplicated.
  std::vector<std::pair<uint32_t, int32_t>> unique_tokens;
  for (size_t si = 0; si < repo.schema_count(); ++si) {
    const auto schema_index = static_cast<int32_t>(si);
    const schema::Schema& schema = repo.schema(schema_index);
    SMB_RETURN_IF_ERROR(schema.Validate());
    prepared.first_ordinal_.push_back(
        static_cast<uint32_t>(prepared.elements_.size()));
    for (size_t n = 0; n < schema.size(); ++n) {
      const auto node_id = static_cast<schema::NodeId>(n);
      const schema::SchemaNode& node = schema.node(node_id);
      const auto ordinal = static_cast<uint32_t>(prepared.elements_.size());

      PreparedElement element;
      element.schema_index = schema_index;
      element.node = node_id;
      // Interning against the shared table makes every element's token ids
      // comparable to every query's lookup-only ids.
      element.name =
          sim::PrepareName(node.name, name_options, prepared.token_table_.get());
      element.trigram_count =
          static_cast<uint32_t>(element.name.gram_ids.size());

      // Trigram postings with multiplicities: gram ids are sorted, so runs
      // of equal ids give the per-gram count directly.
      const auto& gram_ids = element.name.gram_ids;
      for (size_t g = 0; g < gram_ids.size();) {
        size_t end = g + 1;
        while (end < gram_ids.size() && gram_ids[end] == gram_ids[g]) ++end;
        trigram_postings[gram_ids[g]].push_back(
            TrigramPosting{ordinal, static_cast<uint16_t>(end - g)});
        prepared.stats_.trigram_posting_entries++;
        g = end;
      }

      // Token postings (deduplicated per element) plus synonym-group
      // postings so dictionary aliases retrieve each other. Every token of
      // the element was interned above, so its id indexes the dense table.
      AppendUniqueTokenGroupPairs(element.name, &unique_tokens);
      for (const auto& [token_id, group] : unique_tokens) {
        if (token_id >= token_postings.size()) {
          token_postings.resize(token_id + 1);
        }
        token_postings[token_id].push_back(ordinal);
        prepared.stats_.token_posting_entries++;
        if (group >= 0) {
          auto& postings = prepared.token_group_postings_[group];
          if (postings.empty() || postings.back() != ordinal) {
            postings.push_back(ordinal);
          }
        }
      }

      prepared.name_buckets_[element.name.folded].push_back(ordinal);
      if (element.name.name_group >= 0) {
        prepared.name_group_buckets_[element.name.name_group].push_back(
            ordinal);
      }
      prepared.type_buckets_[node.type].push_back(ordinal);

      prepared.elements_.push_back(std::move(element));
    }
  }
  // Flatten the accumulated postings into the CSR arrays. The trigram
  // keys are collected from the hash map and sorted explicitly — the
  // binary-search lookup requires ascending keys.
  prepared.token_posting_offsets_.reserve(token_postings.size() + 1);
  prepared.token_posting_entries_.reserve(
      prepared.stats_.token_posting_entries);
  prepared.token_posting_offsets_.push_back(0);
  for (const std::vector<uint32_t>& postings : token_postings) {
    prepared.token_posting_entries_.insert(
        prepared.token_posting_entries_.end(), postings.begin(),
        postings.end());
    prepared.token_posting_offsets_.push_back(
        static_cast<uint32_t>(prepared.token_posting_entries_.size()));
  }
  prepared.trigram_keys_.reserve(trigram_postings.size());
  for (const auto& [gram_id, postings] : trigram_postings) {
    prepared.trigram_keys_.push_back(gram_id);
  }
  std::sort(prepared.trigram_keys_.begin(), prepared.trigram_keys_.end());
  prepared.trigram_offsets_.reserve(trigram_postings.size() + 1);
  prepared.trigram_entries_.reserve(prepared.stats_.trigram_posting_entries);
  prepared.trigram_offsets_.push_back(0);
  for (uint32_t gram_id : prepared.trigram_keys_) {
    const std::vector<TrigramPosting>& postings =
        trigram_postings.at(gram_id);
    prepared.trigram_entries_.insert(prepared.trigram_entries_.end(),
                                     postings.begin(), postings.end());
    prepared.trigram_offsets_.push_back(
        static_cast<uint32_t>(prepared.trigram_entries_.size()));
  }

  prepared.stats_.element_count = prepared.elements_.size();
  prepared.stats_.distinct_tokens = prepared.token_table_->size();
  prepared.stats_.distinct_trigrams = prepared.trigram_keys_.size();
  prepared.stats_.distinct_types = prepared.type_buckets_.size();
  prepared.BuildTrigramBlocks();
  prepared.BuildNameIds();
  return prepared;
}

void PreparedRepository::BuildNameIds() {
  // Keys view the elements' own folded strings, which outlive the map.
  std::unordered_map<std::string_view, uint32_t> ids;
  ids.reserve(elements_.size());
  name_ids_.resize(elements_.size());
  name_representatives_.clear();
  for (size_t ordinal = 0; ordinal < elements_.size(); ++ordinal) {
    const auto [it, inserted] = ids.try_emplace(
        elements_[ordinal].name.folded, static_cast<uint32_t>(ids.size()));
    if (inserted) {
      name_representatives_.push_back(static_cast<uint32_t>(ordinal));
    }
    name_ids_[ordinal] = it->second;
  }
}

void PreparedRepository::BuildTrigramBlocks() {
  const size_t list_count = trigram_keys_.size();
  trigram_block_offsets_.clear();
  trigram_block_last_ordinals_.clear();
  trigram_block_max_counts_.clear();
  trigram_block_tc_floors_.clear();
  trigram_block_offsets_.reserve(list_count + 1);
  trigram_block_offsets_.push_back(0);
  for (size_t li = 0; li < list_count; ++li) {
    const size_t begin = trigram_offsets_[li];
    const size_t end = trigram_offsets_[li + 1];
    for (size_t b = begin; b < end; b += kTrigramBlockSize) {
      const size_t block_end = std::min(end, b + kTrigramBlockSize);
      uint16_t max_count = 0;
      uint32_t tc_floor = std::numeric_limits<uint32_t>::max();
      for (size_t e = b; e < block_end; ++e) {
        const TrigramPosting& posting = trigram_entries_[e];
        max_count = std::max(max_count, posting.count);
        tc_floor =
            std::min(tc_floor, elements_[posting.ordinal].trigram_count);
      }
      trigram_block_last_ordinals_.push_back(
          trigram_entries_[block_end - 1].ordinal);
      trigram_block_max_counts_.push_back(max_count);
      trigram_block_tc_floors_.push_back(tc_floor);
    }
    trigram_block_offsets_.push_back(
        static_cast<uint32_t>(trigram_block_last_ordinals_.size()));
  }
}

std::span<const uint32_t> PreparedRepository::TokenPostings(
    std::string_view token) const {
  return TokenPostings(token_table_->Lookup(token));
}

std::span<const uint32_t> PreparedRepository::TokenPostings(
    uint32_t token_id) const {
  // 64-bit compare: kUnknownTokenId + 1 must not wrap into a valid slot.
  if (size_t{token_id} + 1 >= token_posting_offsets_.size()) return {};
  return {token_posting_entries_.data() + token_posting_offsets_[token_id],
          token_posting_entries_.data() + token_posting_offsets_[token_id + 1]};
}

const std::vector<uint32_t>* PreparedRepository::TokenGroupPostings(
    int group) const {
  auto it = token_group_postings_.find(group);
  return it == token_group_postings_.end() ? nullptr : &it->second;
}

std::span<const TrigramPosting> PreparedRepository::TrigramPostings(
    std::string_view gram) const {
  if (gram.size() != 3) return {};
  return TrigramPostings(sim::GramTable::Pack(gram));
}

std::span<const TrigramPosting> PreparedRepository::TrigramPostings(
    uint32_t gram_id) const {
  const int32_t slot = TrigramListIndex(gram_id);
  return slot < 0 ? std::span<const TrigramPosting>{}
                  : TrigramListPostings(slot);
}

int32_t PreparedRepository::TrigramListIndex(uint32_t gram_id) const {
  auto it =
      std::lower_bound(trigram_keys_.begin(), trigram_keys_.end(), gram_id);
  if (it == trigram_keys_.end() || *it != gram_id) return -1;
  return static_cast<int32_t>(it - trigram_keys_.begin());
}

std::span<const TrigramPosting> PreparedRepository::TrigramListPostings(
    int32_t list_index) const {
  const auto slot = static_cast<size_t>(list_index);
  return {trigram_entries_.data() + trigram_offsets_[slot],
          trigram_entries_.data() + trigram_offsets_[slot + 1]};
}

TrigramBlockSpans PreparedRepository::TrigramBlocks(
    int32_t list_index) const {
  const auto slot = static_cast<size_t>(list_index);
  const size_t begin = trigram_block_offsets_[slot];
  const size_t end = trigram_block_offsets_[slot + 1];
  return {
      std::span(trigram_block_last_ordinals_).subspan(begin, end - begin),
      std::span(trigram_block_max_counts_).subspan(begin, end - begin),
      std::span(trigram_block_tc_floors_).subspan(begin, end - begin),
  };
}

const std::vector<uint32_t>* PreparedRepository::NameBucket(
    std::string_view folded) const {
  return Find(name_buckets_, std::string(folded));
}

const std::vector<uint32_t>* PreparedRepository::NameGroupBucket(
    int group) const {
  auto it = name_group_buckets_.find(group);
  return it == name_group_buckets_.end() ? nullptr : &it->second;
}

const std::vector<uint32_t>* PreparedRepository::TypeBucket(
    std::string_view type) const {
  return Find(type_buckets_, std::string(type));
}

}  // namespace smb::index
