#include "eval/answer_set_io.h"

#include <charconv>

#include "common/strings.h"
#include "io/csv.h"

/// \file answer_set_io.cc
/// \brief CSV reader/writer for answer sets and ground-truth judgments.

namespace smb::eval {

namespace {

std::string TargetsToField(const std::vector<schema::NodeId>& targets) {
  std::string out;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(targets[i]);
  }
  return out;
}

/// Appends `value` formatted by `std::to_chars(…, args…)` to `out`.
template <typename T, typename... Args>
void AppendChars(std::string* out, T value, Args... args) {
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), value, args...);
  out->append(buf, r.ptr);
}

Result<std::vector<schema::NodeId>> FieldToTargets(std::string_view field) {
  std::vector<schema::NodeId> targets;
  for (const std::string& part : Split(field, ';')) {
    SMB_ASSIGN_OR_RETURN(uint64_t value, io::ParseUint(part));
    if (value > static_cast<uint64_t>(INT32_MAX)) {
      return Status::ParseError("target id out of range: " + part);
    }
    targets.push_back(static_cast<schema::NodeId>(value));
  }
  if (targets.empty()) {
    return Status::ParseError("empty targets field");
  }
  return targets;
}

}  // namespace

std::string WriteAnswerSetCsv(const match::AnswerSet& answers) {
  // The bytes `io::WriteCsv` writes for the document with metadata
  // matchbounds=answer_set and count=N, header (schema_index, targets,
  // delta) and one row per mapping, written into one buffer. No field
  // ever needs quoting (digits, ';' and a number), and `std::to_chars` in
  // general format at precision 17 is printf's "%.17g".
  std::string out = "#matchbounds=answer_set\n#count=";
  AppendChars(&out, answers.size());
  out += "\nschema_index,targets,delta\n";
  size_t targets = 0;
  for (const auto& m : answers.mappings()) targets += m.targets.size();
  // Typical rows fit this; a longer one grows the buffer.
  out.reserve(out.size() + answers.size() * 28 + targets * 4);
  for (const auto& m : answers.mappings()) {
    AppendChars(&out, m.schema_index);
    out += ',';
    for (size_t i = 0; i < m.targets.size(); ++i) {
      if (i > 0) out += ';';
      AppendChars(&out, m.targets[i]);
    }
    out += ',';
    AppendChars(&out, m.delta, std::chars_format::general, 17);
    out += '\n';
  }
  return out;
}

Result<match::AnswerSet> ReadAnswerSetCsv(std::string_view text) {
  SMB_ASSIGN_OR_RETURN(io::CsvDocument doc, io::ParseCsv(text));
  if (doc.GetMeta("matchbounds") != "answer_set") {
    return Status::InvalidArgument(
        "not an answer set file (missing '#matchbounds=answer_set')");
  }
  int schema_col = doc.ColumnIndex("schema_index");
  int targets_col = doc.ColumnIndex("targets");
  int delta_col = doc.ColumnIndex("delta");
  if (schema_col < 0 || targets_col < 0 || delta_col < 0) {
    return Status::ParseError(
        "answer set CSV must have schema_index, targets and delta columns");
  }
  match::AnswerSet answers;
  for (size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    match::Mapping m;
    SMB_ASSIGN_OR_RETURN(
        uint64_t schema_index,
        io::ParseUint(row[static_cast<size_t>(schema_col)]));
    m.schema_index = static_cast<int32_t>(schema_index);
    SMB_ASSIGN_OR_RETURN(m.targets,
                         FieldToTargets(row[static_cast<size_t>(targets_col)]));
    SMB_ASSIGN_OR_RETURN(m.delta,
                         io::ParseDouble(row[static_cast<size_t>(delta_col)]));
    if (m.delta < 0.0) {
      return Status::ParseError(StrFormat("row %zu: negative delta", r + 1));
    }
    answers.Add(std::move(m));
  }
  answers.Finalize();
  return answers;
}

std::string WriteGroundTruthCsv(const eval::GroundTruth& truth,
                                const std::vector<match::Mapping::Key>& keys) {
  io::CsvDocument doc;
  doc.metadata.emplace_back("matchbounds", "ground_truth");
  doc.metadata.emplace_back("count", std::to_string(truth.size()));
  doc.header = {"schema_index", "targets"};
  for (const auto& key : keys) {
    if (!truth.Contains(key)) continue;  // keys must describe the truth
    doc.rows.push_back(
        {std::to_string(key.schema_index), TargetsToField(key.targets)});
  }
  return io::WriteCsv(doc);
}

Result<eval::GroundTruth> ReadGroundTruthCsv(std::string_view text) {
  SMB_ASSIGN_OR_RETURN(io::CsvDocument doc, io::ParseCsv(text));
  if (doc.GetMeta("matchbounds") != "ground_truth") {
    return Status::InvalidArgument(
        "not a ground truth file (missing '#matchbounds=ground_truth')");
  }
  int schema_col = doc.ColumnIndex("schema_index");
  int targets_col = doc.ColumnIndex("targets");
  if (schema_col < 0 || targets_col < 0) {
    return Status::ParseError(
        "ground truth CSV must have schema_index and targets columns");
  }
  eval::GroundTruth truth;
  for (const auto& row : doc.rows) {
    match::Mapping::Key key;
    SMB_ASSIGN_OR_RETURN(
        uint64_t schema_index,
        io::ParseUint(row[static_cast<size_t>(schema_col)]));
    key.schema_index = static_cast<int32_t>(schema_index);
    SMB_ASSIGN_OR_RETURN(key.targets,
                         FieldToTargets(row[static_cast<size_t>(targets_col)]));
    truth.AddCorrect(std::move(key));
  }
  return truth;
}

Status WriteAnswerSetFile(const std::string& path,
                          const match::AnswerSet& answers) {
  return io::WriteTextFile(path, WriteAnswerSetCsv(answers));
}

Result<match::AnswerSet> ReadAnswerSetFile(const std::string& path) {
  SMB_ASSIGN_OR_RETURN(std::string content, io::ReadTextFile(path));
  auto result = ReadAnswerSetCsv(content);
  if (!result.ok()) return result.status().WithContext("in " + path);
  return result;
}

}  // namespace smb::eval
