#include "util/csv.hpp"

#include <ostream>

#include "util/json.hpp"

namespace dpho::util {

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const std::string& field : fields) {
    if (!first) out_ << delimiter_;
    first = false;
    const bool needs_quotes = field.find_first_of("\"\r\n") != std::string::npos ||
                              field.find(delimiter_) != std::string::npos;
    if (!needs_quotes) {
      out_ << field;
      continue;
    }
    out_ << '"';
    for (char c : field) {
      if (c == '"') out_ << '"';
      out_ << c;
    }
    out_ << '"';
  }
  out_ << '\n';
}

std::string CsvWriter::format(double value) {
  std::string out;
  append_shortest(value, out);
  return out;
}

std::vector<std::vector<std::string>> CsvReader::parse(const std::string& text,
                                                       char delimiter) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  const auto end_field = [&] {
    row.push_back(field);
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    if (field_started || !field.empty() || !row.empty()) {
      end_field();
      rows.push_back(row);
      row.clear();
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      field_started = true;
    } else if (c == delimiter) {
      end_field();
      field_started = true;  // the next field exists even if empty
    } else if (c == '\n') {
      end_row();
    } else if (c == '\r') {
      // swallow; \r\n handled by the \n branch
    } else {
      field.push_back(c);
      field_started = true;
    }
  }
  end_row();
  return rows;
}

}  // namespace dpho::util
