#include "data/csv.h"

#include <fstream>
#include <string_view>

#include "common/io.h"
#include "common/string_util.h"
#include "data/omds.h"

namespace omnimatch {
namespace data {

namespace {

/// Escapes the TSV structural characters so review text round-trips
/// exactly: tab, newline, carriage return and backslash become two-character
/// sequences. The inverse is UnescapeText.
std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string UnescapeText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      // Unknown escape: keep both characters (forward compatibility with
      // files written by a newer escaper).
      default: out += '\\'; out += text[i];
    }
  }
  return out;
}

}  // namespace

Status SaveDomainTsv(const DomainDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "user_id\titem_id\trating\tsummary\tfull_text\n";
  for (size_t i = 0; i < dataset.num_reviews(); ++i) {
    out << dataset.ReviewUser(i) << '\t' << dataset.ReviewItem(i) << '\t'
        << dataset.ReviewRating(i) << '\t'
        << EscapeText(dataset.ReviewSummary(i)) << '\t'
        << EscapeText(dataset.ReviewFullText(i)) << '\n';
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<DomainDataset> LoadDomainTsv(const std::string& path,
                                    const std::string& name) {
  // One whole-file read instead of a getline loop: parsing walks the buffer
  // without per-line stream overhead.
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& buffer = read.value();

  OmdsWriter writer;
  bool first = true;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= buffer.size()) {
    // getline semantics: a trailing fragment without '\n' is still a line;
    // a buffer ending in '\n' does not yield an extra empty line.
    if (pos == buffer.size()) {
      if (pos == 0 || buffer.back() == '\n') break;
    }
    size_t eol = buffer.find('\n', pos);
    if (eol == std::string::npos) eol = buffer.size();
    std::string line = buffer.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (first) {
      first = false;
      if (!StartsWith(line, "user_id\t")) {
        return Status::InvalidArgument(path + ": missing TSV header");
      }
      continue;
    }
    if (StripWhitespace(line).empty()) continue;
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() < 4) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: expected >=4 tab-separated fields, got %d",
                    path.c_str(), line_no, static_cast<int>(fields.size())));
    }
    int user_id = 0;
    int item_id = 0;
    float rating = 0.0f;
    // Checked parses: std::atoi/atof silently read "3x" as 3 and turn any
    // garbage into 0 — a dataset bug the model would then train on. Every
    // field must parse in full or the row is rejected with its location.
    if (!ParseInt32(fields[0], &user_id)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: bad user_id '%s'", path.c_str(), line_no,
                    fields[0].c_str()));
    }
    if (!ParseInt32(fields[1], &item_id)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: bad item_id '%s'", path.c_str(), line_no,
                    fields[1].c_str()));
    }
    if (!ParseFloat(fields[2], &rating)) {
      return Status::InvalidArgument(
          StrFormat("%s:%d: bad rating '%s'", path.c_str(), line_no,
                    fields[2].c_str()));
    }
    std::string summary = UnescapeText(fields[3]);
    // Add is the one record validator (negative ids, ratings outside
    // [1, 5] and NaN); its rejection gets the row's location.
    Status added = writer.Add(
        user_id, item_id, rating, summary,
        fields.size() >= 5 ? UnescapeText(fields[4]) : summary);
    if (!added.ok()) {
      return Status::InvalidArgument(StrFormat(
          "%s:%d: %s", path.c_str(), line_no, added.message().c_str()));
    }
  }
  OM_RETURN_IF_ERROR(writer.Finalize());
  Result<std::shared_ptr<const OmdsFile>> image = writer.TakeImage();
  if (!image.ok()) return image.status();
  return DomainDataset(name, std::move(image).value());
}

}  // namespace data
}  // namespace omnimatch
