#pragma once

/// \file csv.hpp
/// CSV emission for post-processing (the paper artifact's `-format_out`
/// option wrote machine-readable files; each bench binary can dump its
/// series as CSV next to the human-readable table).

#include <fstream>
#include <string>
#include <vector>

namespace dsouth::util {

/// Streaming CSV writer with RFC-4180 quoting. Throws CheckError if the
/// file cannot be opened or a row has the wrong arity.
///
/// Rows go to `<path>.tmp`, which replaces `<path>` when the writer is
/// destroyed with no exception in flight. A throw past the writer, or an
/// abort before its destruction, leaves `<path>` as it was.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> headers);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& cells);

  /// Convenience: all-numeric row, formatted with max precision.
  void write_row(const std::vector<double>& values);

  std::size_t rows_written() const { return rows_; }
  const std::string& path() const { return path_; }

 private:
  static std::string escape(const std::string& cell);

  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  std::size_t arity_;
  std::size_t rows_ = 0;
};

}  // namespace dsouth::util
