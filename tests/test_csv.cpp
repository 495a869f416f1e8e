// Tests for the RFC-4180-style CSV reader/writer.

#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "test_temp_dir.hpp"

namespace {

using mvcom::common::CsvRow;
using mvcom::common::CsvWriter;
using mvcom::common::escape_csv_field;
using mvcom::common::parse_csv_line;
using mvcom::common::read_csv;

class CsvTest : public ::testing::Test {
 protected:
  TestTempDir tmp_;
  const std::filesystem::path& dir_ = tmp_.path();
};

TEST(ParseCsvLineTest, SplitsFields) {
  EXPECT_EQ(parse_csv_line("a,b,c"), (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line("single"), (CsvRow{"single"}));
  EXPECT_EQ(parse_csv_line("x,,z"), (CsvRow{"x", "", "z"}));
  EXPECT_EQ(parse_csv_line(",,"), (CsvRow{"", "", ""}));
}

TEST(ParseCsvLineTest, CustomSeparator) {
  EXPECT_EQ(parse_csv_line("a;b;c", ';'), (CsvRow{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  EXPECT_EQ(parse_csv_line("a,\"b\",c"), (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line("\"a,b\",c"), (CsvRow{"a,b", "c"}));
  EXPECT_EQ(parse_csv_line("\"say \"\"hi\"\"\",x"), (CsvRow{"say \"hi\"", "x"}));
  EXPECT_EQ(parse_csv_line("\"\",\"\""), (CsvRow{"", ""}));
}

TEST(ParseCsvLineTest, MalformedQuotingThrows) {
  // Unterminated quoted field.
  EXPECT_THROW(parse_csv_line("a,\"b"), std::invalid_argument);
  // Stray quote inside an unquoted field.
  EXPECT_THROW(parse_csv_line("a,b\"c,d"), std::invalid_argument);
  // Text after the closing quote.
  EXPECT_THROW(parse_csv_line("\"a\"b,c"), std::invalid_argument);
  // Embedded newline — single-line API refuses what read_csv would accept.
  EXPECT_THROW(parse_csv_line("\"a\nb\",c\nd,e"), std::invalid_argument);
}

TEST(EscapeCsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(escape_csv_field("plain"), "plain");
  EXPECT_EQ(escape_csv_field(""), "");
  EXPECT_EQ(escape_csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(escape_csv_field("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(escape_csv_field("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(escape_csv_field("a;b", ';'), "\"a;b\"");
  EXPECT_EQ(escape_csv_field("a,b", ';'), "a,b");
}

TEST_F(CsvTest, WriteReadRoundtrip) {
  const auto path = dir_ / "data.csv";
  {
    CsvWriter writer(path);
    writer.write_row({"id", "value"});
    writer.write_row({"1", "3.5"});
    writer.write_row({"2", "7.25"});
  }
  const auto file = read_csv(path, /*expect_header=*/true);
  EXPECT_EQ(file.header, (CsvRow{"id", "value"}));
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[1], (CsvRow{"2", "7.25"}));
}

TEST_F(CsvTest, NoHeaderMode) {
  const auto path = dir_ / "raw.csv";
  {
    CsvWriter writer(path);
    writer.write_row({"1", "2"});
    writer.write_row({"3", "4"});
  }
  const auto file = read_csv(path, /*expect_header=*/false);
  EXPECT_TRUE(file.header.empty());
  EXPECT_EQ(file.rows.size(), 2u);
}

TEST_F(CsvTest, SkipsBlankLinesAndCarriageReturns) {
  const auto path = dir_ / "crlf.csv";
  {
    std::ofstream out(path);
    out << "a,b\r\n\r\n1,2\r\n";
  }
  const auto file = read_csv(path, /*expect_header=*/true);
  EXPECT_EQ(file.header, (CsvRow{"a", "b"}));
  ASSERT_EQ(file.rows.size(), 1u);
  EXPECT_EQ(file.rows[0], (CsvRow{"1", "2"}));
}

TEST_F(CsvTest, QuotedRoundtripWithSeparatorsNewlinesAndEmptyFields) {
  const auto path = dir_ / "quoted.csv";
  const CsvRow header{"name", "note", "empty"};
  const CsvRow row0{"alpha, beta", "first line\nsecond line", ""};
  const CsvRow row1{"quote \" inside", "trailing,comma,", ""};
  const CsvRow row2{"", "", ""};
  {
    CsvWriter writer(path);
    writer.write_row(header);
    writer.write_row(row0);
    writer.write_row(row1);
    writer.write_row(row2);
  }
  const auto file = read_csv(path, /*expect_header=*/true);
  EXPECT_EQ(file.header, header);
  ASSERT_EQ(file.rows.size(), 3u);
  EXPECT_EQ(file.rows[0], row0);
  EXPECT_EQ(file.rows[1], row1);
  EXPECT_EQ(file.rows[2], row2);
}

TEST_F(CsvTest, QuotedFieldSpanningCrlfLines) {
  const auto path = dir_ / "span.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\r\n\"multi\r\nline\",2\r\n";
  }
  const auto file = read_csv(path, /*expect_header=*/true);
  ASSERT_EQ(file.rows.size(), 1u);
  EXPECT_EQ(file.rows[0], (CsvRow{"multi\r\nline", "2"}));
}

TEST_F(CsvTest, MalformedQuotingInFileThrows) {
  const auto path = dir_ / "badquote.csv";
  {
    std::ofstream out(path);
    out << "a,b\n\"unterminated,2\n";
  }
  EXPECT_THROW(read_csv(path, true), std::invalid_argument);
}

TEST_F(CsvTest, InconsistentArityThrows) {
  const auto path = dir_ / "bad.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2,3\n";
  }
  EXPECT_THROW(read_csv(path, true), std::runtime_error);
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv(dir_ / "nope.csv", true), std::runtime_error);
}

TEST_F(CsvTest, WriterToUnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

}  // namespace
