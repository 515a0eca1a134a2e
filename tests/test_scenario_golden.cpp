// Golden reproducibility for the defended / non-ideal scenarios.
//
// Two layers of protection:
//
//  * In-process (PR 3): the serial runner's outcome is the snapshot; a
//    runner sharing one 4-worker ThreadPool must reproduce every metric —
//    attack success rates included — exactly, because the batched kernels
//    are bit-identical under any pool partition and read noise is a pure
//    counter stream. A drift in any metric means a kernel or RNG contract
//    regression, not tolerable noise.
//
//  * Committed JSON (this PR): the same five scenarios are pinned to
//    golden files under tests/golden/, compared with a small numeric
//    tolerance. Bit-exactness is deliberately NOT demanded here — the
//    committed values come from one platform and libm rounding differs
//    across implementations — but anything beyond ~1e-7 relative is a
//    real regression. Regenerate after an intentional contract change:
//        ./test_scenario_golden --update-golden
//    (or set XBARSEC_UPDATE_GOLDEN=1). --golden-dir=PATH overrides the
//    compiled-in tests/golden location.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "xbarsec/core/scenario.hpp"

namespace xbarsec::core {
namespace {

std::string g_golden_dir = XBARSEC_GOLDEN_DIR;
bool g_update_golden = false;

/// The defended / non-ideal builtin scenarios under test.
const char* kScenarios[] = {
    "fig4/mnist/softmax-noisy-device",  // read noise + stuck faults
    "fig4/mnist/softmax-detected",      // detector-guarded deployment
    "fig5/mnist/label-defended",        // noisy-power defense
    "probe/mnist/undefended",           // bare side channel baseline
    "probe/mnist/defended",             // dummies + noise + query budget
};

std::string sanitized(std::string name) {
    for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
    }
    return name;
}

/// Far below apply_smoke: these train victims, so keep CI budgets tiny.
ScenarioSpec tiny(const std::string& name) {
    ScenarioSpec spec = builtin_scenarios().get(name);
    apply_smoke(spec);
    spec.load.train_count = 300;
    spec.load.test_count = 100;
    spec.victim.train.epochs = 3;
    if (auto* fig4 = std::get_if<Fig4Options>(&spec.experiment)) {
        fig4->strengths = {0, 5};
        fig4->eval_limit = 60;
    } else if (auto* fig5 = std::get_if<Fig5Options>(&spec.experiment)) {
        fig5->runs = 2;
        fig5->query_counts = {10, 40};
        fig5->eval_limit = 50;
    }
    return spec;
}

// ---- minimal JSON (exactly the subset the golden writer emits) -------------

struct JsonValue {
    enum class Kind { Null, Number, String, Array, Object } kind = Kind::Null;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

    const JsonValue* find(const std::string& key) const {
        for (const auto& [k, v] : object) {
            if (k == key) return &v;
        }
        return nullptr;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parse() {
        JsonValue v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("golden JSON parse error at byte " + std::to_string(pos_) +
                                 ": " + what);
    }
    void skip_ws() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    char peek() {
        skip_ws();
        if (pos_ >= s_.size()) fail("unexpected end");
        return s_[pos_];
    }
    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue value() {
        const char c = peek();
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = string();
            return v;
        }
        return number();
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') break;
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("dangling escape");
                const char e = s_[pos_++];
                switch (e) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case 'n': out.push_back('\n'); break;
                    case 't': out.push_back('\t'); break;
                    case 'r': out.push_back('\r'); break;
                    default: fail("unsupported escape");
                }
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    JsonValue number() {
        skip_ws();
        const char* start = s_.c_str() + pos_;
        char* end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start) fail("expected a number");
        pos_ += static_cast<std::size_t>(end - start);
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        return v;
    }

    JsonValue array() {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            const char c = peek();
            ++pos_;
            if (c == ']') break;
            if (c != ',') fail("expected ',' or ']'");
        }
        return v;
    }

    JsonValue object() {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            std::string key = string();
            expect(':');
            v.object.emplace_back(std::move(key), value());
            const char c = peek();
            ++pos_;
            if (c == '}') break;
            if (c != ',') fail("expected ',' or '}'");
        }
        return v;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

std::string json_escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default: out.push_back(c);
        }
    }
    return out;
}

std::string format_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Serializes the comparable slice of an outcome: every metric plus every
/// rendered table (the attack-success-rate sweeps) as CSV text.
std::string to_golden_json(const ScenarioOutcome& outcome, const std::string& scenario) {
    std::ostringstream out;
    out << "{\n  \"scenario\": \"" << json_escaped(scenario) << "\",\n  \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : outcome.metrics) {
        out << (first ? "\n" : ",\n") << "    \"" << json_escaped(key)
            << "\": " << format_double(value);
        first = false;
    }
    out << "\n  },\n  \"tables\": [";
    for (std::size_t t = 0; t < outcome.tables.size(); ++t) {
        out << (t == 0 ? "\n" : ",\n") << "    {\"title\": \""
            << json_escaped(outcome.tables[t].first) << "\", \"csv\": \""
            << json_escaped(outcome.tables[t].second.to_csv()) << "\"}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

std::string golden_path(const std::string& scenario) {
    return g_golden_dir + "/" + sanitized(scenario) + ".json";
}

/// Numeric closeness for committed goldens: tight enough that any kernel
/// or RNG contract change trips it, loose enough to absorb cross-platform
/// libm rounding differences amplified by a few training epochs.
bool close_enough(double a, double b) {
    if (a == b) return true;
    const double tol = 1e-9 + 1e-7 * std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) <= tol;
}

/// Compares two CSV texts cell by cell: numeric cells with tolerance,
/// everything else exactly.
void expect_csv_near(const std::string& expected, const std::string& got,
                     const std::string& context) {
    std::istringstream es(expected), gs(got);
    std::string eline, gline;
    std::size_t lineno = 0;
    while (true) {
        const bool e_ok = static_cast<bool>(std::getline(es, eline));
        const bool g_ok = static_cast<bool>(std::getline(gs, gline));
        ASSERT_EQ(e_ok, g_ok) << context << ": row count differs at line " << lineno;
        if (!e_ok) break;
        ++lineno;
        std::istringstream ecell(eline), gcell(gline);
        std::string ec, gc;
        std::size_t col = 0;
        while (true) {
            const bool ec_ok = static_cast<bool>(std::getline(ecell, ec, ','));
            const bool gc_ok = static_cast<bool>(std::getline(gcell, gc, ','));
            ASSERT_EQ(ec_ok, gc_ok)
                << context << ": column count differs at line " << lineno << " col " << col;
            if (!ec_ok) break;
            ++col;
            char* eend = nullptr;
            char* gend = nullptr;
            const double ev = std::strtod(ec.c_str(), &eend);
            const double gv = std::strtod(gc.c_str(), &gend);
            const bool e_num = eend == ec.c_str() + ec.size() && !ec.empty();
            const bool g_num = gend == gc.c_str() + gc.size() && !gc.empty();
            if (e_num && g_num) {
                EXPECT_TRUE(close_enough(ev, gv))
                    << context << " line " << lineno << " col " << col << ": " << ec << " vs "
                    << gc;
            } else {
                EXPECT_EQ(ec, gc) << context << " line " << lineno << " col " << col;
            }
        }
    }
}

class ScenarioGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioGolden, PooledRunnerReproducesSerialSnapshot) {
    const ScenarioSpec spec = tiny(GetParam());

    const ScenarioRunner serial_runner(nullptr);
    const ScenarioOutcome snapshot = serial_runner.run(spec);
    ASSERT_FALSE(snapshot.metrics.empty()) << GetParam();

    ThreadPool pool(4);
    const ScenarioRunner pooled_runner(&pool);
    const ScenarioOutcome pooled = pooled_runner.run(spec);

    ASSERT_EQ(snapshot.metrics.size(), pooled.metrics.size()) << GetParam();
    for (const auto& [key, value] : snapshot.metrics) {
        const auto it = pooled.metrics.find(key);
        ASSERT_NE(it, pooled.metrics.end()) << GetParam() << " lost metric " << key;
        // Bit-exact, not approximately equal: the pooled path must not
        // perturb a single rounding.
        EXPECT_EQ(value, it->second) << GetParam() << " metric " << key;
    }

    // The rendered tables carry the attack-success-rate sweeps; they must
    // agree cell for cell too.
    ASSERT_EQ(snapshot.tables.size(), pooled.tables.size()) << GetParam();
    for (std::size_t t = 0; t < snapshot.tables.size(); ++t) {
        EXPECT_EQ(snapshot.tables[t].first, pooled.tables[t].first);
        EXPECT_EQ(snapshot.tables[t].second.to_csv(), pooled.tables[t].second.to_csv())
            << GetParam() << " table " << snapshot.tables[t].first;
    }
}

TEST_P(ScenarioGolden, RepeatedSerialRunsAreIdentical) {
    // The snapshot itself must be stable run-to-run at a fixed seed —
    // otherwise the pooled comparison above would be vacuous.
    const ScenarioSpec spec = tiny(GetParam());
    const ScenarioRunner runner(nullptr);
    const ScenarioOutcome a = runner.run(spec);
    const ScenarioOutcome b = runner.run(spec);
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto& [key, value] : a.metrics) {
        EXPECT_EQ(value, b.metrics.at(key)) << GetParam() << " metric " << key;
    }
}

TEST_P(ScenarioGolden, MatchesCommittedGoldenJson) {
    const std::string scenario = GetParam();
    const ScenarioRunner runner(nullptr);
    const ScenarioOutcome outcome = runner.run(tiny(scenario));
    const std::string path = golden_path(scenario);

    if (g_update_golden) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << to_golden_json(outcome, scenario);
        ASSERT_TRUE(static_cast<bool>(out)) << "short write to " << path;
        std::printf("[  golden  ] refreshed %s\n", path.c_str());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run ./test_scenario_golden --update-golden to create it";
    std::stringstream buf;
    buf << in.rdbuf();
    const JsonValue golden = JsonParser(buf.str()).parse();

    const JsonValue* metrics = golden.find("metrics");
    ASSERT_NE(metrics, nullptr) << path;
    std::map<std::string, double> expected;
    for (const auto& [key, v] : metrics->object) {
        ASSERT_EQ(v.kind, JsonValue::Kind::Number) << path << " metric " << key;
        expected[key] = v.number;
    }
    ASSERT_EQ(expected.size(), outcome.metrics.size()) << scenario << ": metric set changed — "
        << "intentional? refresh with --update-golden";
    for (const auto& [key, value] : outcome.metrics) {
        const auto it = expected.find(key);
        ASSERT_NE(it, expected.end()) << scenario << " gained metric " << key;
        EXPECT_TRUE(close_enough(it->second, value))
            << scenario << " metric " << key << ": golden " << format_double(it->second)
            << " vs " << format_double(value);
    }

    const JsonValue* tables = golden.find("tables");
    ASSERT_NE(tables, nullptr) << path;
    ASSERT_EQ(tables->array.size(), outcome.tables.size()) << scenario;
    for (std::size_t t = 0; t < outcome.tables.size(); ++t) {
        const JsonValue* title = tables->array[t].find("title");
        const JsonValue* csv = tables->array[t].find("csv");
        ASSERT_NE(title, nullptr);
        ASSERT_NE(csv, nullptr);
        EXPECT_EQ(title->string, outcome.tables[t].first) << scenario << " table " << t;
        expect_csv_near(csv->string, outcome.tables[t].second.to_csv(),
                        scenario + " table " + outcome.tables[t].first);
    }
}

INSTANTIATE_TEST_SUITE_P(DefendedAndNonIdeal, ScenarioGolden, ::testing::ValuesIn(kScenarios),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             return sanitized(info.param);
                         });

}  // namespace
}  // namespace xbarsec::core

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    // InitGoogleTest strips the flags it owns; ours remain.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--update-golden") {
            xbarsec::core::g_update_golden = true;
        } else if (arg.rfind("--golden-dir=", 0) == 0) {
            xbarsec::core::g_golden_dir = arg.substr(std::string("--golden-dir=").size());
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }
    if (const char* env = std::getenv("XBARSEC_UPDATE_GOLDEN");
        env != nullptr && *env != '\0' && std::string(env) != "0") {
        xbarsec::core::g_update_golden = true;
    }
    return RUN_ALL_TESTS();
}
