#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace dsouth::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Table, BasicLayoutAlignsColumns) {
  Table t({"Matrix", "BJ", "DS"});
  t.row().cell("Flan_1565").cell(0.547, 3).cell(0.234, 3);
  t.row().cell("x").dagger().cell(1.0, 3);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Flan_1565"), std::string::npos);
  EXPECT_NE(s.find("0.547"), std::string::npos);
  EXPECT_NE(s.find("†"), std::string::npos);
  // Header, rule, two rows.
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}

TEST(Table, DaggerCountsAsOneDisplayColumn) {
  Table t({"A", "B"});
  t.row().cell("x").dagger();
  t.row().cell("y").cell("1");
  std::istringstream in(t.to_string());
  std::string header, rule, row1, row2;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, row1);
  std::getline(in, row2);
  // Rows must have equal display width; row1 has the 3-byte dagger.
  EXPECT_EQ(row1.size(), row2.size() + 2);
}

TEST(Table, IncompleteRowFailsOnPrint) {
  Table t({"A", "B"});
  t.row().cell("only-one");
  std::ostringstream os;
  EXPECT_THROW(t.print(os), CheckError);
}

TEST(Table, OverfullRowThrows) {
  Table t({"A"});
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), CheckError);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"A"});
  EXPECT_THROW(t.cell("x"), CheckError);
}

TEST(Table, NumericFormatting) {
  EXPECT_EQ(format_double(1.23456, 3), "1.235");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/dsouth_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.write_row(std::vector<std::string>{"1", "hello"});
    w.write_row(std::vector<double>{2.5, -1.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,hello");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,-1");
  std::remove(path.c_str());
}

TEST(Csv, QuotesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "/dsouth_quote.csv";
  {
    CsvWriter w(path, {"x"});
    w.write_row(std::vector<std::string>{"has,comma"});
    w.write_row(std::vector<std::string>{"has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, WrongArityThrows) {
  const std::string path = ::testing::TempDir() + "/dsouth_arity.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.write_row(std::vector<std::string>{"only-one"}), CheckError);
  std::remove(path.c_str());
}

TEST(Csv, DestinationUnchangedWhileWriterLives) {
  const std::string path = ::testing::TempDir() + "/dsouth_publish.csv";
  std::ofstream(path) << "old\n";
  {
    CsvWriter w(path, {"a"});
    w.write_row(std::vector<std::string>{"1"});
    EXPECT_EQ(read_file(path), "old\n");
  }
  EXPECT_EQ(read_file(path), "a\n1\n");
  std::remove(path.c_str());
}

TEST(Csv, ThrowLeavesDestinationUnchanged) {
  const std::string path = ::testing::TempDir() + "/dsouth_unwind.csv";
  std::ofstream(path) << "old\n";
  EXPECT_THROW(
      {
        CsvWriter w(path, {"a", "b"});
        w.write_row(std::vector<std::string>{"1", "2"});
        w.write_row(std::vector<std::string>{"only-one"});
      },
      CheckError);
  EXPECT_EQ(read_file(path), "old\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Csv, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), CheckError);
}

}  // namespace
}  // namespace dsouth::util
