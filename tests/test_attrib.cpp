// MinHash sketch property suite and AttributionEngine unit tests: set
// semantics and bottom-k retention, merge = sketch-of-the-union
// (associative / commutative / idempotent), similarity as exact Jaccard
// under k and a monotone estimate beyond, pooled == serial bit-identity
// across ThreadPool sizes, union-find campaign clustering (same-source
// auto-union, repeat-overlap replay merges, close-time sketch merges),
// the deployment alert window, the one-pass row flags, observe_unit
// against the single calls it replaces, and the telemetry accessor
// contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "xbarsec/attrib/engine.hpp"
#include "xbarsec/attrib/sketch.hpp"
#include "xbarsec/common/contracts.hpp"
#include "xbarsec/common/error.hpp"
#include "xbarsec/common/rng.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/tensor/gemm.hpp"

namespace xbarsec::attrib {
namespace {

/// Deterministic pseudo-random 64-bit item ids (counter-mode, so a test
/// names an item by (seed, i) and always gets the same hash).
std::uint64_t item(std::uint64_t seed, std::uint64_t i) { return counter_rng::hash_at(seed, i, 0); }

std::vector<std::uint64_t> items(std::uint64_t seed, std::size_t n) {
    std::vector<std::uint64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = item(seed, i);
    return out;
}

MinHashSketch sketch_of(const std::vector<std::uint64_t>& hashes, std::size_t k) {
    MinHashSketch s(k);
    for (const std::uint64_t h : hashes) s.insert(h);
    return s;
}

double exact_jaccard(std::vector<std::uint64_t> a, std::vector<std::uint64_t> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    std::vector<std::uint64_t> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(inter));
    const std::size_t uni = a.size() + b.size() - inter.size();
    return uni == 0 ? 0.0 : static_cast<double>(inter.size()) / static_cast<double>(uni);
}

// ---- content hashing --------------------------------------------------------

TEST(ContentHash, IsAPureFunctionOfTheBitPattern) {
    const std::vector<double> row{0.25, -1.5, 3.0};
    EXPECT_EQ(hash_row(row), hash_row(row));

    std::vector<double> other = row;
    other[1] = -1.5000000001;
    EXPECT_NE(hash_row(row), hash_row(other));

    // Exact bit patterns: +0.0 and -0.0 are different inputs.
    EXPECT_NE(hash_row(std::vector<double>{0.0}), hash_row(std::vector<double>{-0.0}));
    // Length matters even when the extra element is zero.
    EXPECT_NE(hash_row(std::vector<double>{1.0}), hash_row(std::vector<double>{1.0, 0.0}));
}

// ---- MinHash sketch ---------------------------------------------------------

TEST(MinHashSketch, KeepsTheKSmallestDistinctHashesSorted) {
    MinHashSketch s(4);
    for (const std::uint64_t h : {50ull, 10ull, 30ull, 10ull, 50ull}) s.insert(h);
    EXPECT_EQ(s.values(), (std::vector<std::uint64_t>{10, 30, 50}));

    s.insert(40);  // fills k
    s.insert(20);  // evicts 50, the k-th minimum
    s.insert(60);  // above the k-th minimum: dropped
    EXPECT_EQ(s.values(), (std::vector<std::uint64_t>{10, 20, 30, 40}));
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.k(), 4u);
}

TEST(MinHashSketch, IsInsertionOrderIndependent) {
    std::vector<std::uint64_t> hashes = items(7, 500);
    const MinHashSketch forward = sketch_of(hashes, 64);
    std::mt19937_64 shuffle_rng(99);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(hashes.begin(), hashes.end(), shuffle_rng);
        EXPECT_TRUE(sketch_of(hashes, 64) == forward);
    }
}

TEST(MinHashSketch, MergeIsTheSketchOfTheUnion) {
    const std::vector<std::uint64_t> ha = items(1, 300);
    const std::vector<std::uint64_t> hb = items(2, 200);
    std::vector<std::uint64_t> both = ha;
    both.insert(both.end(), hb.begin(), hb.end());

    MinHashSketch merged = sketch_of(ha, 64);
    merged.merge(sketch_of(hb, 64));
    EXPECT_TRUE(merged == sketch_of(both, 64));
}

TEST(MinHashSketch, MergeIsAssociativeCommutativeIdempotent) {
    const MinHashSketch a = sketch_of(items(11, 250), 64);
    const MinHashSketch b = sketch_of(items(12, 250), 64);
    const MinHashSketch c = sketch_of(items(13, 250), 64);

    MinHashSketch ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);
    MinHashSketch bc = b;
    bc.merge(c);
    MinHashSketch a_bc = a;
    a_bc.merge(bc);
    EXPECT_TRUE(ab_c == a_bc);  // associative

    MinHashSketch ab = a;
    ab.merge(b);
    MinHashSketch ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba);  // commutative

    MinHashSketch aa = a;
    aa.merge(a);
    EXPECT_TRUE(aa == a);  // idempotent
}

TEST(MinHashSketch, SimilarityIsExactJaccardWhenSetsFitInK) {
    const std::vector<std::uint64_t> ha = items(21, 40);
    std::vector<std::uint64_t> hb(ha.begin(), ha.begin() + 10);  // 10 shared
    const std::vector<std::uint64_t> extra = items(22, 30);
    hb.insert(hb.end(), extra.begin(), extra.end());

    const MinHashSketch a = sketch_of(ha, 256);  // 40 + 40 distinct < k
    const MinHashSketch b = sketch_of(hb, 256);
    EXPECT_DOUBLE_EQ(a.similarity(b), exact_jaccard(ha, hb));
    EXPECT_DOUBLE_EQ(a.similarity(b), b.similarity(a));
    EXPECT_DOUBLE_EQ(a.similarity(a), 1.0);
}

TEST(MinHashSketch, SimilarityIsMonotoneInTrueOverlap) {
    // Two sets of 600 with 0, 150, 300, 450, 600 shared items, sketched
    // at k = 128 (estimation regime). The estimate must grow with the
    // true overlap and roughly track the true Jaccard.
    const std::vector<std::uint64_t> base = items(31, 600);
    double previous = -1.0;
    for (const std::size_t shared : {0u, 150u, 300u, 450u, 600u}) {
        std::vector<std::uint64_t> other(base.begin(), base.begin() + shared);
        const std::vector<std::uint64_t> fresh = items(32 + shared, 600 - shared);
        other.insert(other.end(), fresh.begin(), fresh.end());

        const double estimate = sketch_of(base, 128).similarity(sketch_of(other, 128));
        EXPECT_GT(estimate, previous);
        const double truth = exact_jaccard(base, other);
        EXPECT_NEAR(estimate, truth, 0.12);
        previous = estimate;
    }
    EXPECT_DOUBLE_EQ(previous, 1.0);  // identical sets estimate exactly 1
}

TEST(MinHashSketch, EmptySketchesNeverResembleAnything) {
    const MinHashSketch empty(64);
    const MinHashSketch full = sketch_of(items(41, 100), 64);
    EXPECT_DOUBLE_EQ(empty.similarity(empty), 0.0);
    EXPECT_DOUBLE_EQ(empty.similarity(full), 0.0);
    EXPECT_DOUBLE_EQ(full.similarity(empty), 0.0);
    EXPECT_DOUBLE_EQ(empty.containment_in(full), 0.0);
    EXPECT_TRUE(empty.empty());
}

TEST(MinHashSketch, ContainmentScoresSubsetsAsOne) {
    const std::vector<std::uint64_t> big = items(51, 200);
    const std::vector<std::uint64_t> small(big.begin(), big.begin() + 20);
    const MinHashSketch superset = sketch_of(big, 256);
    const MinHashSketch subset = sketch_of(small, 256);
    EXPECT_DOUBLE_EQ(subset.containment_in(superset), 1.0);
    EXPECT_DOUBLE_EQ(superset.containment_in(subset), 0.1);  // 20 of 200
    // Jaccard alone under-scores the subset relation — the reason the
    // engine also checks containment at session close.
    EXPECT_LT(subset.similarity(superset), 0.5);
}

TEST(MinHashSketch, PooledInsertionMatchesSerialBitIdentically) {
    // The determinism contract the engine's docs promise: a sketch is a
    // pure function of the hash *set*, so chunked parallel insertion
    // into per-chunk sketches merged in any order equals the serial
    // sketch bit-for-bit, regardless of pool size.
    const std::vector<std::uint64_t> hashes = items(61, 2000);
    const MinHashSketch serial = sketch_of(hashes, 128);

    for (const std::size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        const std::size_t chunks = 8;
        std::vector<MinHashSketch> partial(chunks, MinHashSketch(128));
        parallel_for(pool, chunks, [&](std::size_t c) {
            const std::size_t begin = c * hashes.size() / chunks;
            const std::size_t end = (c + 1) * hashes.size() / chunks;
            for (std::size_t i = begin; i < end; ++i) partial[c].insert(hashes[i]);
        });

        MinHashSketch forward(128);
        for (const MinHashSketch& p : partial) forward.merge(p);
        EXPECT_TRUE(forward == serial) << threads << " threads, forward merge";

        MinHashSketch backward(128);
        for (auto it = partial.rbegin(); it != partial.rend(); ++it) backward.merge(*it);
        EXPECT_TRUE(backward == serial) << threads << " threads, reverse merge";
    }
}

TEST(MinHashSketch, RejectsZeroCapacity) { EXPECT_THROW(MinHashSketch(0), ContractViolation); }

// ---- engine: row heuristics -------------------------------------------------

TEST(AttributionEngine, RowHeuristicsMatchTheirDocs) {
    EngineConfig config;  // amplitude 1.5, nnz divisor 32
    const std::vector<double> clean(64, 0.5);
    const std::vector<double> hot = [] {
        std::vector<double> v(64, 0.5);
        v[10] = -3.0;
        return v;
    }();
    std::vector<double> basis(64, 0.0);
    basis[3] = 1.0;

    EXPECT_FALSE(AttributionEngine::suspicious_row(clean, config));
    EXPECT_TRUE(AttributionEngine::suspicious_row(hot, config));
    EXPECT_FALSE(AttributionEngine::basis_like_row(clean, config));
    EXPECT_TRUE(AttributionEngine::basis_like_row(basis, config));
}

/// Runs `check` under every kernel arm this host supports, then restores
/// the arm that was in effect (row_flags vectorises on the AVX-512 arm).
void for_each_kernel_arm(const std::function<void()>& check) {
    const tensor::KernelVariant previous = tensor::forced_kernel_variant();
    for (const tensor::KernelVariant v :
         {tensor::KernelVariant::Portable, tensor::KernelVariant::Avx2,
          tensor::KernelVariant::Avx512}) {
        if (!tensor::kernel_variant_available(v)) continue;
        tensor::set_kernel_variant(v);
        SCOPED_TRACE(tensor::to_string(v));
        check();
    }
    tensor::set_kernel_variant(previous);
}

TEST(AttributionEngine, RowFlagsEqualTheTwoHeuristicsExactly) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EngineConfig defaults;  // amplitude 1.5, nnz divisor 32
    EngineConfig edge;      // amplitude 0: any |v| > 0; divisor 0 acts as 1
    edge.suspicious_amplitude = 0.0;
    edge.basis_nnz_divisor = 0;

    std::vector<std::vector<double>> rows;
    for (const std::size_t n : {1, 7, 8, 9, 31, 32, 33, 64, 65, 77, 784}) {
        // The amplitude boundary, at the first, a middle and the last line.
        const double amp = defaults.suspicious_amplitude;
        for (const double v : {amp, -amp, std::nextafter(amp, inf), -std::nextafter(amp, inf),
                               std::nextafter(amp, 0.0), inf, -inf, nan, -0.0, 0.0}) {
            for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
                std::vector<double> row(n, 0.25);
                row[at] = v;
                rows.push_back(row);
            }
        }
        // The nnz budget's boundary: exactly budget and budget + 1 driven
        // lines, among −0.0 (undriven) fillers; NaN counts as driven.
        const std::size_t budget = std::max<std::size_t>(n / 32, 1);
        for (const std::size_t driven : {budget - 1, budget, budget + 1}) {
            if (driven > n) continue;
            for (const double v : {0.5, nan, -3.0}) {
                std::vector<double> row(n, -0.0);
                for (std::size_t k = 0; k < driven; ++k) row[(k * n) / driven] = v;
                rows.push_back(row);
            }
        }
    }
    // Known verdicts at the boundaries, so equality cannot pass on two
    // heuristics that are wrong the same way.
    const std::vector<double> at_amp(9, 1.5), above_amp{0.0, std::nextafter(1.5, 2.0)};
    EXPECT_FALSE(AttributionEngine::suspicious_row(at_amp, defaults));
    EXPECT_TRUE(AttributionEngine::suspicious_row(above_amp, defaults));
    EXPECT_TRUE(AttributionEngine::basis_like_row(std::vector<double>(64, -0.0), defaults));
    EXPECT_FALSE(AttributionEngine::basis_like_row(std::vector<double>{nan, 0.0, nan}, defaults));

    for_each_kernel_arm([&] {
        for (const EngineConfig& config : {defaults, edge}) {
            for (std::size_t r = 0; r < rows.size(); ++r) {
                const RowFlags flags = AttributionEngine::row_flags(rows[r], config);
                ASSERT_EQ(flags.suspicious, AttributionEngine::suspicious_row(rows[r], config))
                    << "row " << r << " of " << rows[r].size();
                ASSERT_EQ(flags.basis_like, AttributionEngine::basis_like_row(rows[r], config))
                    << "row " << r << " of " << rows[r].size();
            }
        }
    });
}

// ---- engine: clustering -----------------------------------------------------

Observation flagged_obs(std::uint64_t session, SourceId source, std::uint64_t hash) {
    Observation obs;
    obs.session = session;
    obs.source = source;
    obs.input_hash = hash;
    obs.flagged = true;
    return obs;
}

TEST(AttributionEngine, SameSourceSessionsShareOneCampaign) {
    AttributionEngine engine;
    engine.note_session_open(1, 7);
    engine.note_session_open(2, 7);
    engine.note_session_open(3, 8);

    EXPECT_EQ(engine.campaign_count(), 2u);
    EXPECT_EQ(engine.campaign_of(1).sessions, 2u);
    EXPECT_EQ(engine.campaign_of(2).id, engine.campaign_of(1).id);
    EXPECT_EQ(engine.campaign_of(3).sessions, 1u);

    EXPECT_EQ(engine.source_count(), 2u);
    EXPECT_EQ(engine.sources(), (std::vector<SourceId>{7, 8}));
    EXPECT_EQ(engine.source_counters(7).sessions, 2u);
}

TEST(AttributionEngine, AnonymousSessionsAreNeverIdentityClustered) {
    AttributionEngine engine;
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);
    EXPECT_EQ(engine.campaign_count(), 2u);
    EXPECT_EQ(engine.campaign_of(1).sessions, 1u);
    EXPECT_EQ(engine.campaign_of(2).sessions, 1u);
}

TEST(AttributionEngine, RepeatedReplayOfAnotherCampaignsProbesMerges) {
    EngineConfig config;
    config.repeat_overlap = 3;
    AttributionEngine engine(config);
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);

    // Session 1 (the original campaign) issues three indexed probes.
    for (std::uint64_t i = 0; i < 3; ++i) engine.observe(flagged_obs(1, 0, item(71, i)));
    // Session 2 replays two of them: not yet enough to attribute.
    engine.observe(flagged_obs(2, 0, item(71, 0)));
    engine.observe(flagged_obs(2, 0, item(71, 1)));
    EXPECT_EQ(engine.campaign_count(), 2u);
    // The third replay crosses repeat_overlap: one campaign, pooled.
    engine.observe(flagged_obs(2, 0, item(71, 2)));
    EXPECT_EQ(engine.campaign_count(), 1u);
    EXPECT_EQ(engine.campaign_of(2).sessions, 2u);
    EXPECT_EQ(engine.campaign_of(2).screened, 6u);
    EXPECT_EQ(engine.pooled_screened(1), 6u);
    EXPECT_DOUBLE_EQ(engine.pooled_flagged_fraction(1), 1.0);
}

TEST(AttributionEngine, ReplayingYourOwnProbesNeverMergesAnything) {
    AttributionEngine engine;
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);
    for (int round = 0; round < 10; ++round) {
        engine.observe(flagged_obs(1, 0, item(72, 0)));  // own hash, many times
    }
    EXPECT_EQ(engine.campaign_count(), 2u);
}

TEST(AttributionEngine, CleanRowsNeverEnterSketchesOrTheIndex) {
    AttributionEngine engine;
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);
    // Two benign tenants querying the *same* inputs (a shared public
    // dataset): identical hashes, nothing flagged or suspicious.
    for (std::uint64_t i = 0; i < 200; ++i) {
        Observation obs;
        obs.input_hash = item(73, i);
        obs.session = 1;
        engine.observe(obs);
        obs.session = 2;
        engine.observe(obs);
    }
    engine.note_session_close(1);
    engine.note_session_close(2);
    EXPECT_EQ(engine.campaign_count(), 2u);  // no false merge, ever
    EXPECT_EQ(engine.campaign_of(1).sketch_hashes, 0u);
    EXPECT_EQ(engine.campaign_of(1).screened, 200u);
    EXPECT_DOUBLE_EQ(engine.campaign_of(1).flagged_fraction(), 0.0);
}

TEST(AttributionEngine, SketchOverlapMergesAtSessionClose) {
    EngineConfig config;
    config.repeat_overlap = 1000;  // keep the index path out of the way
    config.merge_min_hashes = 16;
    AttributionEngine engine(config);
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);
    // Both anonymous sessions probe the same 24 suspicious inputs — no
    // single replay run crosses repeat_overlap, but the sketches agree.
    for (std::uint64_t i = 0; i < 24; ++i) {
        Observation obs = flagged_obs(1, 0, item(74, i));
        obs.flagged = false;
        obs.suspicious = true;
        engine.observe(obs);
        obs.session = 2;
        engine.observe(obs);
    }
    EXPECT_EQ(engine.campaign_count(), 2u);  // not merged mid-flight
    engine.note_session_close(2);
    EXPECT_EQ(engine.campaign_count(), 1u);
    EXPECT_EQ(engine.campaign_of(1).sessions, 2u);
    EXPECT_EQ(engine.campaign_of(1).sketch_hashes, 24u);
}

// ---- engine: deployment alert ----------------------------------------------

TEST(AttributionEngine, AlertTripsOnAHotWindowAndCoolsWhenItDrains) {
    EngineConfig config;
    config.window_events = 8;
    config.alert_min_screened = 4;
    AttributionEngine engine(config);
    engine.note_session_open(1, 0);

    EXPECT_FALSE(engine.alert());  // empty window
    Observation hot = flagged_obs(1, 0, item(75, 0));
    engine.observe(hot);
    engine.observe(hot);
    EXPECT_FALSE(engine.alert());  // 2 < alert_min_screened
    engine.observe(hot);
    engine.observe(hot);
    EXPECT_TRUE(engine.alert());  // 4/4 flagged
    EXPECT_DOUBLE_EQ(engine.window_flagged_fraction(), 1.0);

    Observation clean;
    clean.session = 1;
    for (int i = 0; i < 8; ++i) clean.input_hash = item(75, 100 + i), engine.observe(clean);
    EXPECT_FALSE(engine.alert());  // hot events slid out of the window
    EXPECT_EQ(engine.window_screened(), 8u);  // capped at window_events
    EXPECT_DOUBLE_EQ(engine.window_flagged_fraction(), 0.0);
}

TEST(AttributionEngine, BasisLikeRowsFeedTheAlertWindowButNeverCluster) {
    EngineConfig config;
    config.window_events = 8;
    config.alert_min_screened = 4;
    AttributionEngine engine(config);
    engine.note_session_open(1, 0);
    engine.note_session_open(2, 0);
    Observation basis;
    basis.session = 1;
    basis.basis_like = true;  // sparse probe shape, not flagged/suspicious
    for (std::uint64_t i = 0; i < 4; ++i) {
        basis.input_hash = item(76, i);
        engine.observe(basis);
        basis.session = 2;
        engine.observe(basis);
        basis.session = 1;
    }
    EXPECT_TRUE(engine.alert());  // suspicious_fraction counts basis-like
    EXPECT_DOUBLE_EQ(engine.window_suspicious_fraction(), 1.0);
    EXPECT_EQ(engine.campaign_of(1).sketch_hashes, 0u);  // ...but no clustering
    EXPECT_EQ(engine.campaign_of(1).suspicious, 0u);
    EXPECT_EQ(engine.campaign_count(), 2u);
}

// ---- engine: lifecycle + telemetry -----------------------------------------

TEST(AttributionEngine, ProbationMarksSourcesFirstSeenDuringAnAlert) {
    EngineConfig config;
    config.window_events = 8;
    config.alert_min_screened = 4;
    config.churn_fresh_sources = 0;  // isolate the detector-window alert
    AttributionEngine engine(config);
    engine.note_session_open(1, 5);  // established before any alert
    EXPECT_FALSE(engine.probation(5));

    for (std::uint64_t i = 0; i < 4; ++i) engine.observe(flagged_obs(1, 5, item(90, i)));
    ASSERT_TRUE(engine.alert());
    EXPECT_FALSE(engine.probation(5));  // pre-alert sources are never marked

    engine.note_session_open(2, 6);  // first seen mid-alert
    EXPECT_TRUE(engine.probation(6));
    EXPECT_FALSE(engine.probation(0));  // anonymous is exempt

    Observation clean;
    clean.session = 1;
    clean.source = 5;
    for (int i = 0; i < 8; ++i) clean.input_hash = item(90, 100 + i), engine.observe(clean);
    ASSERT_FALSE(engine.alert());
    EXPECT_FALSE(engine.probation(6));  // enforcement is alert-gated...

    for (std::uint64_t i = 0; i < 4; ++i) engine.observe(flagged_obs(1, 5, item(90, 200 + i)));
    ASSERT_TRUE(engine.alert());
    EXPECT_TRUE(engine.probation(6));  // ...but the mark is permanent
}

TEST(AttributionEngine, ProbationCanBeDisabled) {
    EngineConfig config;
    config.window_events = 8;
    config.alert_min_screened = 4;
    config.probation = false;
    AttributionEngine engine(config);
    engine.note_session_open(1, 5);
    for (std::uint64_t i = 0; i < 4; ++i) engine.observe(flagged_obs(1, 5, item(91, i)));
    ASSERT_TRUE(engine.alert());
    engine.note_session_open(2, 6);
    EXPECT_FALSE(engine.probation(6));
}

TEST(AttributionEngine, ChurnAlertTripsOnFreshSourceMinting) {
    EngineConfig config;
    config.churn_window_opens = 8;
    config.churn_fresh_sources = 4;
    AttributionEngine engine(config);

    engine.note_session_open(1, 0);  // anonymous opens never count
    EXPECT_FALSE(engine.churn_alert());
    for (std::uint64_t s = 1; s <= 3; ++s) engine.note_session_open(10 + s, 100 + s);
    EXPECT_FALSE(engine.churn_alert());   // 3 fresh sources < 4
    EXPECT_FALSE(engine.probation(103));  // pre-trip sources stay clear

    engine.note_session_open(14, 104);  // the tripping open is itself caught
    EXPECT_TRUE(engine.churn_alert());
    EXPECT_TRUE(engine.probation(104));
    EXPECT_FALSE(engine.probation(103));

    engine.note_session_open(15, 105);  // every later fresh source too
    EXPECT_TRUE(engine.probation(105));

    // Rotating under one honest identity is not churn: the re-opens
    // slide the fresh marks out of the window and the freeze lifts.
    for (std::uint64_t i = 0; i < 8; ++i) engine.note_session_open(20 + i, 101);
    EXPECT_FALSE(engine.churn_alert());
    EXPECT_FALSE(engine.probation(105));  // enforcement is churn-gated
}

// ---- engine: one lock per submission ---------------------------------------

/// Two engines fed the same units: `single` through observe() per row and
/// the accessors admission used to call one by one, `unit` through
/// observe_unit. Every feed checks that both return the same figures and
/// are left in the same state.
struct EngineTwins {
    AttributionEngine single, unit;
    explicit EngineTwins(const EngineConfig& config) : single(config), unit(config) {}

    void open(std::uint64_t session, SourceId source) {
        single.note_session_open(session, source);
        unit.note_session_open(session, source);
    }

    AdmissionView feed(const std::vector<Observation>& rows, std::uint64_t session,
                       SourceId source) {
        for (const Observation& obs : rows) single.observe(obs);
        AdmissionView expected;
        expected.alert = single.alert();
        expected.probation = single.probation(source);
        expected.pooled_screened = single.pooled_screened(session);
        expected.pooled_suspicion = single.pooled_suspicion_fraction(session);

        const AdmissionView got = unit.observe_unit(rows, session, source);
        expect_same(got, expected);
        expect_same(unit.admission_view(session, source), expected);
        EXPECT_EQ(unit.json_snapshot(), single.json_snapshot());
        EXPECT_EQ(unit.campaign_count(), single.campaign_count());
        return got;
    }

    static void expect_same(const AdmissionView& got, const AdmissionView& expected) {
        EXPECT_EQ(got.alert, expected.alert);
        EXPECT_EQ(got.probation, expected.probation);
        EXPECT_EQ(got.pooled_screened, expected.pooled_screened);
        EXPECT_EQ(0, std::memcmp(&got.pooled_suspicion, &expected.pooled_suspicion, sizeof(double)))
            << got.pooled_suspicion << " vs " << expected.pooled_suspicion;
    }
};

/// `count` rows of one session: `flagged` flagged rows first, then
/// `suspicious` probe-shaped ones, the rest clean, hashes item(seed, i).
std::vector<Observation> unit_rows(std::uint64_t session, SourceId source, std::uint64_t seed,
                                   std::size_t count, std::size_t flagged = 0,
                                   std::size_t suspicious = 0) {
    std::vector<Observation> rows(count);
    for (std::size_t i = 0; i < count; ++i) {
        rows[i].session = session;
        rows[i].source = source;
        rows[i].input_hash = item(seed, i);
        rows[i].flagged = i < flagged;
        rows[i].suspicious = i >= flagged && i < flagged + suspicious;
        rows[i].basis_like = i % 5 == 4;
    }
    return rows;
}

TEST(AttributionEngine, ObserveUnitEqualsTheSingleCallsItReplaces) {
    EngineConfig config;
    config.window_events = 32;
    config.alert_min_screened = 12;
    config.repeat_overlap = 2;
    config.churn_fresh_sources = 0;  // isolate the detector-window alert
    EngineTwins t(config);
    t.open(1, 5);
    t.open(2, 5);
    t.open(3, 0);

    // Serial runs: clean units, then probes that session 3 replays into
    // session 1's campaign (a merge mid-unit).
    for (std::uint64_t k = 0; k < 3; ++k) {
        const AdmissionView v = t.feed(unit_rows(1 + k % 2, 5, 100 + k, 3), 1 + k % 2, 5);
        EXPECT_FALSE(v.alert);
    }
    t.feed(unit_rows(1, 5, 200, 4, /*flagged=*/1, /*suspicious=*/2), 1, 5);
    EXPECT_EQ(t.unit.campaign_count(), 2u);
    t.feed(unit_rows(3, 0, 200, 4, 1, 2), 3, 0);
    EXPECT_EQ(t.unit.campaign_count(), 1u);  // session 3 merged into the source-5 campaign

    // An alert that trips in the middle of a unit: the view reads it after
    // the last row.
    ASSERT_FALSE(t.unit.alert());
    const AdmissionView tripped = t.feed(unit_rows(2, 5, 300, 12, 6, 4), 2, 5);
    EXPECT_TRUE(tripped.alert);
    EXPECT_GT(tripped.pooled_suspicion, 0.0);

    // Probation: a source first seen while the alert is hot is marked,
    // and enforced while it stays hot...
    t.open(4, 9);
    const AdmissionView marked = t.feed(unit_rows(4, 9, 400, 2), 4, 9);
    EXPECT_TRUE(marked.alert);
    EXPECT_TRUE(marked.probation);
    // ...and not once the window cools, though the mark stays.
    const AdmissionView cooled = t.feed(unit_rows(1, 5, 500, 32), 4, 9);
    EXPECT_FALSE(cooled.alert);
    EXPECT_FALSE(cooled.probation);
    const AdmissionView again = t.feed(unit_rows(1, 5, 600, 16, 16), 4, 9);
    EXPECT_TRUE(again.alert);
    EXPECT_TRUE(again.probation);

    // Unknown sessions: observed ones are adopted; an empty unit for one
    // the engine never saw reads as empty and adopts nothing.
    const AdmissionView adopted = t.feed(unit_rows(77, 11, 700, 3, 0, 1), 77, 11);
    EXPECT_EQ(adopted.pooled_screened, 3u);
    const std::size_t campaigns = t.unit.campaign_count();
    const AdmissionView unknown = t.feed({}, 78, 0);
    EXPECT_EQ(unknown.pooled_screened, 0u);
    EXPECT_EQ(unknown.pooled_suspicion, 0.0);
    EXPECT_EQ(t.unit.campaign_count(), campaigns);
    EXPECT_THROW(t.unit.campaign_of(78), ConfigError);
}

TEST(AttributionEngine, StatisticsSurviveSessionClose) {
    AttributionEngine engine;
    engine.note_session_open(1, 9);
    for (std::uint64_t i = 0; i < 10; ++i) engine.observe(flagged_obs(1, 9, item(77, i)));
    engine.note_session_close(1);

    // The rotated successor under the same source inherits the window.
    engine.note_session_open(2, 9);
    EXPECT_EQ(engine.pooled_screened(2), 10u);
    EXPECT_DOUBLE_EQ(engine.pooled_flagged_fraction(2), 1.0);
    EXPECT_EQ(engine.campaign_of(2).sessions, 2u);
    EXPECT_EQ(engine.source_counters(9).screened, 10u);
}

TEST(AttributionEngine, ObserveAdoptsSessionsItNeverSawOpen) {
    AttributionEngine engine;
    engine.observe(flagged_obs(42, 5, item(78, 0)));  // no note_session_open
    EXPECT_EQ(engine.campaign_of(42).screened, 1u);
    EXPECT_EQ(engine.source_counters(5).sessions, 1u);
    EXPECT_EQ(engine.pooled_screened(999), 0u);  // unknown pools as empty
    EXPECT_DOUBLE_EQ(engine.pooled_flagged_fraction(999), 0.0);
}

TEST(AttributionEngine, TelemetryAccessorsThrowOnUnknownKeys) {
    AttributionEngine engine;
    engine.note_session_open(1, 7);
    EXPECT_THROW(engine.source_counters(424242), ConfigError);
    EXPECT_THROW(engine.campaign_of(999), ConfigError);
    EXPECT_NO_THROW(engine.source_counters(7));
    EXPECT_NO_THROW(engine.campaign_of(1));
}

TEST(AttributionEngine, JsonSnapshotCarriesWindowSourcesAndCampaigns) {
    AttributionEngine engine;
    engine.note_session_open(1, 7);
    engine.observe(flagged_obs(1, 7, item(79, 0)));
    const std::string json = engine.json_snapshot();
    EXPECT_NE(json.find("\"alert\":false"), std::string::npos);
    EXPECT_NE(json.find("\"window\":{\"screened\":1"), std::string::npos);
    EXPECT_NE(json.find("\"source\":7"), std::string::npos);
    EXPECT_NE(json.find("\"campaigns\":[{\"id\":1"), std::string::npos);
    EXPECT_NE(json.find("\"sketch_hashes\":1"), std::string::npos);
}

TEST(AttributionEngine, RejectsDegenerateConfigs) {
    EngineConfig config;
    config.window_events = 0;
    EXPECT_THROW(AttributionEngine{config}, ContractViolation);
    config = {};
    config.sketch_k = 0;
    EXPECT_THROW(AttributionEngine{config}, ContractViolation);
    config = {};
    config.churn_window_opens = 0;  // churn enabled but windowless
    EXPECT_THROW(AttributionEngine{config}, ContractViolation);
}

}  // namespace
}  // namespace xbarsec::attrib
