// Tests for contracts, errors, the logger, CLI parsing, table rendering,
// and the thread pool.
#include <gtest/gtest.h>

#include <cmath>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/common/table.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"

namespace xbarsec {
namespace {

// ---- contracts --------------------------------------------------------------

TEST(Contracts, ExpectsThrowsWithLocation) {
    try {
        XS_EXPECTS(1 == 2);
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Precondition"), std::string::npos);
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    }
}

TEST(Contracts, ExpectsMsgCarriesMessage) {
    try {
        XS_EXPECTS_MSG(false, "helpful context");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("helpful context"), std::string::npos);
    }
}

TEST(Contracts, EnsuresThrows) { EXPECT_THROW(XS_ENSURES(false), ContractViolation); }

TEST(Contracts, PassingChecksDoNotThrow) {
    EXPECT_NO_THROW(XS_EXPECTS(true));
    EXPECT_NO_THROW(XS_ENSURES(2 > 1));
    EXPECT_NO_THROW(XS_ASSERT(true));
}

// ---- errors -----------------------------------------------------------------

TEST(Errors, HierarchyAndMessages) {
    const IoError io("boom");
    EXPECT_NE(std::string(io.what()).find("IO error"), std::string::npos);
    const ParseError parse("bad byte");
    EXPECT_NE(std::string(parse.what()).find("parse error"), std::string::npos);
    const ConfigError config("bad flag");
    EXPECT_NE(std::string(config.what()).find("config error"), std::string::npos);
    // All are catchable as Error.
    EXPECT_THROW(throw IoError("x"), Error);
    EXPECT_THROW(throw ParseError("x"), Error);
    EXPECT_THROW(throw ConfigError("x"), Error);
}

// ---- log --------------------------------------------------------------------

TEST(Log, InfoWritesOneTaggedLine) {
    testing::internal::CaptureStderr();
    log::info("epoch ", 3, "/", 10, " loss=", 0.25);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "[xbarsec:INFO] epoch 3/10 loss=0.25\n");
}

// ---- cli --------------------------------------------------------------------

TEST(Cli, ParsesEqualsAndSpaceForms) {
    Cli cli("test");
    cli.flag("alpha", "1", "a");
    cli.flag("name", "x", "n");
    const char* argv[] = {"prog", "--alpha=3", "--name", "hello"};
    ASSERT_TRUE(cli.parse(4, argv));
    EXPECT_EQ(cli.integer("alpha"), 3);
    EXPECT_EQ(cli.str("name"), "hello");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
    Cli cli("test");
    cli.flag("runs", "5", "r");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_EQ(cli.integer("runs"), 5);
    EXPECT_FALSE(cli.provided("runs"));
}

TEST(Cli, BareFlagIsBooleanTrue) {
    Cli cli("test");
    cli.flag("full", "false", "f");
    const char* argv[] = {"prog", "--full"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_TRUE(cli.boolean("full"));
}

TEST(Cli, UnknownFlagThrows) {
    Cli cli("test");
    const char* argv[] = {"prog", "--nope=1"};
    EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, MalformedNumberThrows) {
    Cli cli("test");
    cli.flag("eps", "0.1", "e");
    const char* argv[] = {"prog", "--eps=zzz"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_THROW(cli.real("eps"), ConfigError);
}

TEST(Cli, ListsParse) {
    Cli cli("test");
    cli.flag("lambdas", "0,0.002,0.01", "l");
    cli.flag("queries", "2,10,50", "q");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    const auto ls = cli.real_list("lambdas");
    ASSERT_EQ(ls.size(), 3u);
    EXPECT_DOUBLE_EQ(ls[1], 0.002);
    const auto qs = cli.integer_list("queries");
    ASSERT_EQ(qs.size(), 3u);
    EXPECT_EQ(qs[2], 50);
}

TEST(Cli, HelpReturnsFalse) {
    Cli cli("test");
    cli.flag("x", "1", "x flag");
    const char* argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, NegativeNumericValueViaEquals) {
    Cli cli("test");
    cli.flag("shift", "0", "s");
    const char* argv[] = {"prog", "--shift=-3"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.integer("shift"), -3);
}

// ---- table ------------------------------------------------------------------

TEST(Table, MarkdownLayout) {
    Table t({"a", "bb"});
    t.begin_row();
    t.add("x");
    t.add(1.5, 1);
    const std::string md = t.to_markdown();
    EXPECT_NE(md.find("| a"), std::string::npos);
    EXPECT_NE(md.find("1.5"), std::string::npos);
    EXPECT_NE(md.find("|---"), std::string::npos) << md;
}

TEST(Table, CsvEscaping) {
    Table t({"k"});
    t.begin_row();
    t.add("a,b \"quoted\"");
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"a,b \"\"quoted\"\"\""), std::string::npos) << csv;
}

TEST(Table, WriteCsvRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "xbarsec_table_test.csv";
    Table t({"h1", "h2"});
    t.begin_row();
    t.add(1ll);
    t.add(2ll);
    t.write_csv(path.string());
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "h1,h2");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "1,2");
    std::filesystem::remove(path);
}

TEST(Table, AddWithoutRowThrows) {
    Table t({"h"});
    EXPECT_THROW(t.add("cell"), ContractViolation);
}

TEST(Table, FormatNumberHandlesNan) {
    EXPECT_EQ(Table::format_number(std::nan(""), 3), "nan");
    EXPECT_EQ(Table::format_number(1.23456, 2), "1.23");
}

// ---- thread pool -------------------------------------------------------------

TEST(ThreadPool, DestructionRunsEveryQueuedTask) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        // Both workers sleep in their first task, so the other tasks are
        // still queued when the destructor starts.
        for (int i = 0; i < 2; ++i) {
            pool.submit([&counter] {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                ++counter;
            });
        }
        for (int i = 0; i < 98; ++i) pool.submit([&counter] { ++counter; });
    }  // the destructor drains the queue before joining
    EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(257);
    parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
    ThreadPool pool(2);
    EXPECT_THROW(parallel_for(pool, 8,
                              [](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("task failed");
                              }),
                 std::runtime_error);
}

TEST(ParallelFor, ZeroAndOneCounts) {
    ThreadPool pool(2);
    int calls = 0;
    parallel_for(pool, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel_for(pool, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

// ---- timer ------------------------------------------------------------------

TEST(WallTimer, MeasuresForwardTime) {
    WallTimer t;
    EXPECT_GE(t.seconds(), 0.0);
    t.reset();
    EXPECT_GE(t.milliseconds(), 0.0);
}

}  // namespace
}  // namespace xbarsec
