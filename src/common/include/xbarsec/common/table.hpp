// Tabular result output used by the paper-reproduction benches.
//
// A Table is a column-labelled grid of cells (strings or numbers). It can
// render itself as GitHub-flavoured markdown (what the benches print to
// stdout, mirroring the paper's tables) and as CSV (what they write to
// bench_results/ for plotting).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace xbarsec {

/// Column-labelled result table with markdown and CSV rendering.
class Table {
public:
    Table() = default;
    explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

    /// Starts a new (empty) row and returns its index.
    std::size_t begin_row();

    /// Appends a string cell to the last row.
    void add(std::string cell);

    /// Appends a formatted numeric cell (fixed precision).
    void add(double value, int precision = 4);

    /// Appends an integer cell.
    void add(long long value);

    std::size_t rows() const { return cells_.size(); }
    std::size_t columns() const { return header_.size(); }
    const std::vector<std::string>& header() const { return header_; }

    /// Renders as a GitHub-flavoured markdown table with aligned columns.
    std::string to_markdown() const;

    /// Renders as RFC-4180-ish CSV (cells containing comma/quote/newline
    /// are quoted; quotes doubled).
    std::string to_csv() const;

    /// Writes the CSV rendering to `path`, creating parent directories.
    /// Throws IoError on failure.
    void write_csv(const std::string& path) const;

    /// Formats a double with fixed precision (shared with benches so cell
    /// text and log text match).
    static std::string format_number(double value, int precision);

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> cells_;
};

/// Prints the markdown rendering followed by a newline.
std::ostream& operator<<(std::ostream& os, const Table& table);

}  // namespace xbarsec
