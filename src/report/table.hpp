// Console table rendering for benches and examples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vnfr::report {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format with fixed precision. Rendering pads to the widest cell.
class Table {
  public:
    explicit Table(std::vector<std::string> headers);

    /// Adds a row; must have exactly as many cells as there are headers.
    void add_row(std::vector<std::string> cells);

    [[nodiscard]] std::size_t rows() const { return rows_.size(); }
    [[nodiscard]] std::size_t columns() const { return headers_.size(); }

    /// Plain text with aligned columns and a header rule.
    [[nodiscard]] std::string to_text() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Fixed-point formatting helpers.
std::string format_double(double value, int precision = 2);
std::string format_mean_ci(double mean, double ci_halfwidth, int precision = 1);

}  // namespace vnfr::report
