// Arena / Workspace allocator contracts.
//
// The kernel layer's pack buffers and the trainers' minibatch temporaries
// moved onto the arena layer (common/arena.hpp raw tier, tensor/workspace.hpp
// Matrix tier). These tests pin the contracts that move relies on:
// alignment, reset/reuse without reallocation, LIFO Scope rewind, per-thread
// disjointness under nested parallel_for, and — the end-to-end invariants —
// that every trainer produces bit-identical weights with the arena on or off,
// and that with it on a minibatch step makes no heap allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "xbarsec/common/arena.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/attack/surrogate.hpp"
#include "xbarsec/data/dataset.hpp"
#include "xbarsec/nn/mlp_trainer.hpp"
#include "xbarsec/nn/trainer.hpp"
#include "xbarsec/tensor/workspace.hpp"

// Counts heap allocations so the trainers' minibatch steps can be pinned
// allocation-free.
#include "alloc_counter.hpp"

namespace xbarsec {
namespace {

TEST(Arena, AllocationsAreCacheLineAligned) {
    Arena arena(128);
    for (const std::size_t bytes : {1ul, 7ul, 64ul, 65ul, 1000ul, 100000ul}) {
        void* p = arena.allocate(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlign, 0u) << bytes;
    }
    const auto doubles = arena.alloc<double>(33);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) % Arena::kAlign, 0u);
    EXPECT_EQ(doubles.size(), 33u);
}

TEST(Arena, AllocationsDoNotOverlapAndSurviveGrowth) {
    // Small initial chunk so the loop forces several growth chunks; every
    // block must stay disjoint and retain its fill pattern.
    Arena arena(256);
    std::vector<std::span<double>> blocks;
    for (std::size_t i = 0; i < 40; ++i) {
        auto s = arena.alloc<double>(17 + i * 11);
        for (auto& x : s) x = static_cast<double>(i);
        blocks.push_back(s);
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        for (const double x : blocks[i]) ASSERT_EQ(x, static_cast<double>(i));
        for (std::size_t j = i + 1; j < blocks.size(); ++j) {
            const auto* ai = blocks[i].data();
            const auto* aj = blocks[j].data();
            const bool disjoint = ai + blocks[i].size() <= aj || aj + blocks[j].size() <= ai;
            ASSERT_TRUE(disjoint) << i << " vs " << j;
        }
    }
}

TEST(Arena, ResetReusesMemoryWithoutGrowingTheReservation) {
    Arena arena(1 << 12);
    arena.alloc<double>(2000);  // forces growth past the initial chunk
    const void* first = arena.allocate(64);
    const std::size_t reserved = arena.bytes_reserved();
    arena.reset();
    EXPECT_EQ(arena.bytes_in_use(), 0u);
    // Identical allocation sequence lands on identical addresses, and the
    // reservation never grows: steady-state loops are allocation-free.
    for (int rep = 0; rep < 5; ++rep) {
        arena.alloc<double>(2000);
        EXPECT_EQ(arena.allocate(64), first);
        arena.reset();
        EXPECT_EQ(arena.bytes_reserved(), reserved);
    }
}

TEST(Arena, ScopeRewindsLifo) {
    Arena arena(1 << 10);
    arena.allocate(128);
    const std::size_t outer_use = arena.bytes_in_use();
    {
        const Arena::Scope s1(arena);
        arena.allocate(512);
        {
            const Arena::Scope s2(arena);
            arena.allocate(4096);  // spills into a growth chunk
            EXPECT_GT(arena.bytes_in_use(), outer_use + 512);
        }
        EXPECT_EQ(arena.bytes_in_use(), outer_use + 512);
    }
    EXPECT_EQ(arena.bytes_in_use(), outer_use);
}

TEST(Arena, ThreadArenasAreDisjointUnderNestedParallelFor) {
    // Mirrors the kernel layer's allocation pattern: every worker (and the
    // nested inner parallel_for bodies it runs) bumps its own thread
    // arena. No two live blocks may overlap across the whole run, and
    // every block must keep its fill pattern until its scope closes.
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> live_ranges;

    parallel_for(pool, 8, [&](std::size_t i) {
        Arena& arena = thread_arena();
        const Arena::Scope outer(arena);
        auto mine = arena.alloc<double>(1024);
        for (auto& x : mine) x = static_cast<double>(i);
        {
            std::lock_guard<std::mutex> lock(mu);
            live_ranges.emplace_back(reinterpret_cast<std::uintptr_t>(mine.data()),
                                     reinterpret_cast<std::uintptr_t>(mine.data() + mine.size()));
        }
        parallel_for(pool, 4, [&](std::size_t j) {
            Arena& inner_arena = thread_arena();
            const Arena::Scope inner(inner_arena);
            auto block = inner_arena.alloc<double>(512);
            for (auto& x : block) x = static_cast<double>(100 + j);
            for (const double x : block) ASSERT_EQ(x, static_cast<double>(100 + j));
        });
        // The nested loop ran bodies on this thread too (its scopes must
        // have rewound past our block without touching it).
        for (const double x : mine) ASSERT_EQ(x, static_cast<double>(i));
    });

    for (std::size_t a = 0; a < live_ranges.size(); ++a) {
        for (std::size_t b = a + 1; b < live_ranges.size(); ++b) {
            const bool disjoint = live_ranges[a].second <= live_ranges[b].first ||
                                  live_ranges[b].second <= live_ranges[a].first;
            // Ranges from the same thread at different indices may legally
            // reuse addresses only after the scope closed; live_ranges
            // records blocks while scopes were open on distinct stack
            // levels, so any overlap would be a rewind bug — except exact
            // reuse after a completed iteration on the same thread, which
            // is indistinguishable here and also harmless. Only flag
            // partial overlaps.
            const bool identical = live_ranges[a] == live_ranges[b];
            ASSERT_TRUE(disjoint || identical) << a << " vs " << b;
        }
    }
}

TEST(Workspace, SlotsAreStableAndReusedAfterReset) {
    tensor::Workspace ws;
    tensor::Matrix& a = ws.matrix(8, 8);
    tensor::Matrix& b = ws.matrix(4, 100);
    EXPECT_NE(&a, &b);
    a.fill(1.0);
    b.fill(2.0);
    tensor::Matrix& c = ws.matrix(2, 2);  // growth must not move a or b
    c.fill(3.0);
    EXPECT_EQ(a(0, 0), 1.0);
    EXPECT_EQ(b(3, 99), 2.0);
    EXPECT_EQ(ws.live_slots(), 3u);

    ws.reset();
    EXPECT_EQ(ws.live_slots(), 0u);
    // Same acquisition order → same slots, reshaped in place.
    tensor::Matrix& a2 = ws.matrix(6, 6);
    EXPECT_EQ(&a2, &a);
    EXPECT_EQ(a2.rows(), 6u);
    EXPECT_EQ(ws.pooled_slots(), 3u);

    tensor::Vector& v = ws.vector(12);
    EXPECT_EQ(v.size(), 12u);
}

// ---- the end-to-end invariant: arena on/off is bit-identical ---------------

data::Dataset tiny_dataset(std::uint64_t seed, std::size_t n, std::size_t dim,
                           std::size_t classes) {
    Rng rng(seed);
    tensor::Matrix X = tensor::Matrix::random_uniform(rng, n, dim);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(rng.below(classes));
    return data::Dataset(std::move(X), std::move(labels), classes, {1, dim, 1});
}

TEST(WorkspaceTrainer, SingleLayerWeightsBitIdenticalArenaOnVsOff) {
    const data::Dataset ds = tiny_dataset(5, 97, 23, 4);  // ragged final batch
    nn::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.batch_size = 16;

    auto run = [&](bool arena) {
        Rng init(11);
        nn::SingleLayerNet net(init, 23, 4, nn::Activation::Softmax,
                               nn::Loss::CategoricalCrossentropy);
        nn::TrainConfig c = cfg;
        c.arena = arena;
        const nn::TrainHistory h = nn::train(net, ds, c);
        return std::make_pair(net.weights(), h.epoch_loss);
    };
    const auto [w_on, loss_on] = run(true);
    const auto [w_off, loss_off] = run(false);
    EXPECT_EQ(w_on, w_off);
    EXPECT_EQ(loss_on, loss_off);
}

TEST(WorkspaceTrainer, MlpWeightsBitIdenticalArenaOnVsOff) {
    const data::Dataset ds = tiny_dataset(7, 90, 19, 3);
    nn::MlpConfig mc;
    mc.layer_sizes = {19, 16, 3};
    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 8;

    auto run = [&](bool arena) {
        Rng init(3);
        nn::Mlp mlp(init, mc);
        nn::TrainConfig c = cfg;
        c.arena = arena;
        nn::train_mlp(mlp, ds, c);
        std::vector<tensor::Matrix> weights;
        for (const auto& layer : mlp.layers()) weights.push_back(layer.weights());
        return weights;
    };
    const auto on = run(true);
    const auto off = run(false);
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t l = 0; l < on.size(); ++l) EXPECT_EQ(on[l], off[l]) << "layer " << l;
}

TEST(WorkspaceTrainer, RegressionStepsDoNotAllocate) {
    // 250 rows in batches of 32: eight steps per epoch, the last ragged.
    // Each step's 10×784 weight gradient is the wide-and-flat product gemm()
    // computes as its transpose; that scratch comes off the thread arena
    // too, so four more epochs add 32 steps and no allocation.
    Rng rng(41);
    const tensor::Matrix X = tensor::Matrix::random_uniform(rng, 250, 784);
    const tensor::Matrix Y = tensor::Matrix::random_normal(rng, 250, 10);
    const auto allocations_of = [&](std::size_t epochs) {
        nn::TrainConfig tc;
        tc.epochs = epochs;
        tc.batch_size = 32;
        Rng init(1);
        nn::SingleLayerNet net(init, 784, 10, nn::Activation::Linear, nn::Loss::Mse);
        const std::size_t before = alloc_counter::allocations();
        nn::train_regression(net, X, Y, tc);
        return alloc_counter::allocations() - before;
    };
    (void)allocations_of(1);  // grow the thread arena to its steady-state size
    EXPECT_EQ(allocations_of(6), allocations_of(2));
}

TEST(WorkspaceTrainer, SurrogateWeightsBitIdenticalArenaOnVsOff) {
    Rng rng(13);
    attack::QueryDataset q;
    q.inputs = tensor::Matrix::random_uniform(rng, 61, 15);
    q.outputs = tensor::Matrix::random_normal(rng, 61, 5);
    q.power = tensor::Vector::random_uniform(rng, 61, 0.0, 3.0);

    attack::SurrogateConfig sc;
    sc.train.epochs = 3;
    sc.train.batch_size = 8;
    sc.power_loss_weight = 0.05;

    auto run = [&](bool arena) {
        attack::SurrogateConfig c = sc;
        c.train.arena = arena;
        return attack::train_surrogate(q, c);
    };
    const attack::SurrogateTrainResult on = run(true);
    const attack::SurrogateTrainResult off = run(false);
    EXPECT_EQ(on.surrogate.weights(), off.surrogate.weights());
    EXPECT_EQ(on.epoch_output_loss, off.epoch_output_loss);
    EXPECT_EQ(on.epoch_power_loss, off.epoch_power_loss);
}

}  // namespace
}  // namespace xbarsec
