// Shared bench-result recorder.
//
// Every bench executable that persists measurements emits the same JSON
// shape through this recorder, so tooling (CI artifact diffing, the
// README's reproduction instructions) can treat BENCH_*.json files
// uniformly:
//
//   {
//     "bench": "<name>",
//     "setup": "<one-line machine/config context>",
//     "results": [ {"label": "...", "<key>": <value>, ...}, ... ]
//   }
//
// Values are numbers or strings; insertion order is preserved.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "xbarsec/common/contracts.hpp"

namespace xbarsec::bench {

class BenchRecorder {
public:
    BenchRecorder(std::string name, std::string setup)
        : name_(std::move(name)), setup_(std::move(setup)) {}

    /// Starts a result row. Subsequent add() calls attach fields to it.
    void begin(const std::string& label) {
        rows_.emplace_back();
        add("label", label);
    }

    void add(const std::string& key, const std::string& value) { field(key, quoted(value)); }
    void add(const std::string& key, const char* value) { add(key, std::string(value)); }
    void add(const std::string& key, double value) {
        std::ostringstream os;
        os.precision(10);
        os << value;
        field(key, os.str());
    }
    void add(const std::string& key, long long value) { field(key, std::to_string(value)); }
    void add(const std::string& key, std::size_t value) {
        field(key, std::to_string(value));
    }

    std::size_t size() const { return rows_.size(); }

    /// Writes the JSON file; returns false when the file cannot be opened.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\n  \"bench\": " << quoted(name_) << ",\n  \"setup\": " << quoted(setup_)
            << ",\n  \"results\": [\n";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            out << "    {";
            for (std::size_t f = 0; f < rows_[r].size(); ++f) {
                out << "\"" << rows_[r][f].first << "\": " << rows_[r][f].second;
                if (f + 1 < rows_[r].size()) out << ", ";
            }
            out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        return static_cast<bool>(out);
    }

private:
    void field(const std::string& key, std::string serialized) {
        XS_EXPECTS_MSG(!rows_.empty(), "BenchRecorder::begin() a row before adding fields");
        rows_.back().emplace_back(key, std::move(serialized));
    }

    /// `s` as a JSON string literal: quotes and backslashes escaped.
    /// Built by appending (a `"\"" + ...` concatenation draws a false
    /// GCC 12 -Wrestrict warning from libstdc++'s insert).
    static std::string quoted(const std::string& s) {
        std::string out;
        out.reserve(s.size() + 2);
        out.push_back('"');
        for (const char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            out.push_back(c);
        }
        out.push_back('"');
        return out;
    }

    std::string name_;
    std::string setup_;
    std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace xbarsec::bench
