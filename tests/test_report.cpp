#include <gtest/gtest.h>

#include <sstream>

#include "report/csv.hpp"
#include "report/table.hpp"

namespace vnfr::report {
namespace {

TEST(Table, RejectsEmptyHeaders) {
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsMismatchedRows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
    EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, TextLayoutAligned) {
    Table t({"name", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer-name", "22"});
    const std::string text = t.to_text();
    // Every line has the same column start for "value".
    std::istringstream is(text);
    std::string header;
    std::getline(is, header);
    EXPECT_NE(header.find("name"), std::string::npos);
    EXPECT_NE(header.find("value"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
}

TEST(Formatting, FixedPrecision) {
    EXPECT_EQ(format_double(3.14159, 2), "3.14");
    EXPECT_EQ(format_double(2.0, 0), "2");
    EXPECT_EQ(format_mean_ci(10.5, 0.25, 1), "10.5 +/- 0.2");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
    std::ostringstream os;
    CsvWriter w(os);
    w.write_header({"x", "y"});
    w.write_row(std::vector<std::string>{"1", "2"});
    w.write_row(std::vector<double>{3.5, 4.25});
    EXPECT_EQ(os.str(), "x,y\n1,2\n3.5,4.25\n");
}

TEST(CsvWriter, EnforcesProtocol) {
    std::ostringstream os;
    CsvWriter w(os);
    EXPECT_THROW(w.write_row(std::vector<std::string>{"1"}), std::logic_error);
    w.write_header({"a", "b"});
    EXPECT_THROW(w.write_header({"again"}), std::logic_error);
    EXPECT_THROW(w.write_row(std::vector<std::string>{"1"}), std::invalid_argument);
    EXPECT_THROW(CsvWriter(os).write_header({}), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::report
