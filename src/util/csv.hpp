// Small CSV/TSV reader and writer.
//
// Experiment results (per-generation populations, parallel-coordinates axes,
// lcurve-style training statistics) are exchanged as delimited text so that
// downstream plotting tools can consume them directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dpho::util {

/// Streaming writer that quotes fields when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char delimiter = ',')
      : out_(out), delimiter_(delimiter) {}

  /// Writes one row; strings containing the delimiter, quotes or newlines are
  /// quoted per RFC 4180.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with round-trip precision (append_shortest).
  static std::string format(double value);

 private:
  std::ostream& out_;
  char delimiter_;
};

/// Whole-document reader (small files only).
class CsvReader {
 public:
  /// Parses delimited text into rows of fields, honouring RFC 4180 quoting.
  static std::vector<std::vector<std::string>> parse(const std::string& text,
                                                     char delimiter = ',');
};

}  // namespace dpho::util
