#include "xbarsec/common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/error.hpp"

namespace xbarsec {

std::size_t Table::begin_row() {
    cells_.emplace_back();
    return cells_.size() - 1;
}

void Table::add(std::string cell) {
    XS_EXPECTS_MSG(!cells_.empty(), "call begin_row() before add()");
    cells_.back().push_back(std::move(cell));
}

void Table::add(double value, int precision) { add(format_number(value, precision)); }

void Table::add(long long value) { add(std::to_string(value)); }

std::string Table::format_number(double value, int precision) {
    if (std::isnan(value)) return "nan";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    return buf;
}

std::string Table::to_markdown() const {
    // Column widths over header + all cells (ragged rows render padded).
    std::size_t ncols = header_.size();
    for (const auto& r : cells_) ncols = std::max(ncols, r.size());
    std::vector<std::size_t> width(ncols, 1);
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = std::max(width[c], header_[c].size());
    for (const auto& r : cells_)
        for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());

    auto emit_row = [&](std::ostringstream& os, const std::vector<std::string>& r) {
        os << '|';
        for (std::size_t c = 0; c < ncols; ++c) {
            const std::string& cell = c < r.size() ? r[c] : std::string{};
            os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
        }
        os << '\n';
    };

    std::ostringstream os;
    emit_row(os, header_);
    os << '|';
    for (std::size_t c = 0; c < ncols; ++c) os << std::string(width[c] + 2, '-') << '|';
    os << '\n';
    for (const auto& r : cells_) emit_row(os, r);
    return os.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
    const bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"') out += "\"\"";
        else out += ch;
    }
    out += '"';
    return out;
}

void emit_csv_row(std::ostringstream& os, const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (c) os << ',';
        os << csv_escape(row[c]);
    }
    os << '\n';
}
}  // namespace

std::string Table::to_csv() const {
    std::ostringstream os;
    if (!header_.empty()) emit_csv_row(os, header_);
    for (const auto& r : cells_) emit_csv_row(os, r);
    return os.str();
}

void Table::write_csv(const std::string& path) const {
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(p);
    if (!out) throw IoError("cannot open '" + path + "' for writing");
    out << to_csv();
    if (!out) throw IoError("short write to '" + path + "'");
}

std::ostream& operator<<(std::ostream& os, const Table& table) {
    return os << table.to_markdown();
}

}  // namespace xbarsec
