#include "report/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace vnfr::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
    if (cells.size() != headers_.size())
        throw std::invalid_argument("Table::add_row: cell count mismatch");
    rows_.push_back(std::move(cells));
}

std::string Table::to_text() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream os;
    const auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
            if (c + 1 < cells.size()) os << "  ";
        }
        os << '\n';
    };
    emit(headers_);
    std::size_t total = 0;
    for (const std::size_t w : widths) total += w;
    os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
    for (const auto& row : rows_) emit(row);
    return os.str();
}

std::string format_double(double value, int precision) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string format_mean_ci(double mean, double ci_halfwidth, int precision) {
    return format_double(mean, precision) + " +/- " + format_double(ci_halfwidth, precision);
}

}  // namespace vnfr::report
