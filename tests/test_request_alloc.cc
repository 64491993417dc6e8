/**
 * @file
 * Allocation-freedom test for the steady-state request path.
 *
 * A counting global operator new/delete measures heap activity while
 * the full per-request pipeline — encode, selectAction, replay-ring
 * insert, serve (metadata + devices + eviction), reward — replays a
 * trace it has already warmed up on. After warm-up (scratch buffers
 * sized, replay ring full, page-metadata table grown to the working
 * set) a steady-state request must perform ZERO heap allocations.
 * The request-path cases keep training rounds out by cadence; the
 * training cases run synchronous rounds at the default cadence and
 * hold them to the same zero.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

// Sanitizer builds interpose their own allocator ahead of these
// replacement functions, so the counter can be bypassed there; the
// claim is measured in the plain Release/Debug builds (the sanitizer
// jobs still run the whole request path for memory errors).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SIBYL_ALLOC_COUNTING_RELIABLE 0
#else
#define SIBYL_ALLOC_COUNTING_RELIABLE 1
#endif

#include "core/sibyl_config.hh"
#include "core/sibyl_policy.hh"
#include "hss/hybrid_system.hh"
#include "rl/q_table.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace
{

std::uint64_t gAllocs = 0;
std::uint64_t gFrees = 0;

void *
countedAlloc(std::size_t n)
{
    gAllocs++;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
countedFree(void *p) noexcept
{
    if (p) {
        gFrees++;
        std::free(p);
    }
}

} // namespace

// Replaceable global allocation functions (all usual forms, so no
// call slips past the counter).
void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocs++;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocs++;
    return std::malloc(n ? n : 1);
}
void
operator delete(void *p) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p) noexcept
{
    countedFree(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace sibyl
{
namespace
{

/** Drive the simulator's exact inner-loop shape over @p t. */
void
replay(const trace::Trace &t, hss::HybridSystem &sys,
       core::SibylPolicy &policy)
{
    SimTime gate = 0.0;
    for (std::size_t i = 0; i < t.size(); i++) {
        const trace::Request &req = t[i];
        const SimTime arrival = std::max(req.timestamp, gate);
        const DeviceId action = policy.selectPlacement(sys, req, i);
        const hss::ServeResult res = sys.serve(arrival, req, action);
        policy.observeOutcome(sys, req, action, res);
        gate = res.finishUs;
    }
}

/** Heap activity of a replay of @p t. */
struct Counted
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t tableRows = 0; ///< Q-table rows the replay added
};

/** Allocations of one new Q-table row: its hash node and its Q-value
 *  vector. */
constexpr std::uint64_t kAllocsPerTableRow = 2;

/**
 * replay() counting allocations, frees and the Q-table rows it adds. A
 * tabular learner's table grows by one row per newly visited quantized
 * state, and a replay keeps finding a few new ones (prxy_1's second
 * pass adds a row on ~3% of requests): that is the learner's memory,
 * kAllocsPerTableRow allocations a row once the table's buckets are
 * reserved (done here first, so no insert rehashes). Any allocation
 * beyond those is request-path overhead. The network agents have no
 * table.
 */
Counted
replayCounted(const trace::Trace &t, hss::HybridSystem &sys,
              core::SibylPolicy &policy)
{
    auto *table = dynamic_cast<rl::QTableAgent *>(&policy.agent());
    if (table) {
        auto rows = table->table();
        rows.reserve(rows.size() + t.size());
        table->restoreTable(std::move(rows));
    }
    const std::size_t rowsBefore = table ? table->tableEntries() : 0;
    const std::uint64_t allocsBefore = gAllocs, freesBefore = gFrees;
    replay(t, sys, policy);
    Counted c;
    c.allocs = gAllocs - allocsBefore;
    c.frees = gFrees - freesBefore;
    c.tableRows = table ? table->tableEntries() - rowsBefore : 0;
    return c;
}

core::SibylConfig
requestPathConfig(core::AgentKind kind)
{
    core::SibylConfig cfg;
    cfg.agentKind = kind;
    // Keep training off the measured window: the claim under test is
    // the per-request path (decide + serve + observe); training rounds
    // run at their own cadence and own their scratch.
    cfg.trainEvery = 1u << 30;
    cfg.targetSyncEvery = 1u << 30;
    return cfg;
}

class RequestAllocTest : public ::testing::TestWithParam<core::AgentKind>
{
};

TEST_P(RequestAllocTest, SteadyStateRequestsAllocateNothing)
{
#if !SIBYL_ALLOC_COUNTING_RELIABLE
    GTEST_SKIP() << "sanitizer allocator interposes operator new";
#endif
    trace::Trace t = trace::makeWorkload("prxy_1", 6000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages());
    hss::HybridSystem sys(std::move(specs), 42);
    core::SibylPolicy policy(requestPathConfig(GetParam()),
                             sys.numDevices());

    // Warm-up pass: touches every page (no metadata rehash later),
    // fills the replay ring, and sizes every scratch buffer. Evictions
    // occur steadily (the fast device holds 10% of the working set),
    // so the eviction path is warmed too.
    replay(t, sys, policy);
    ASSERT_GT(sys.counters().evictedPages, 0u);

    // Steady state: replay the same trace again and count.
    const Counted c = replayCounted(t, sys, policy);

    EXPECT_EQ(c.allocs, kAllocsPerTableRow * c.tableRows)
        << "steady-state request path performed " << c.allocs
        << " heap allocations over " << t.size() << " requests ("
        << c.tableRows << " new Q-table rows)";
    EXPECT_EQ(c.frees, 0u)
        << "steady-state request path performed " << c.frees
        << " frees over " << t.size() << " requests";
}

/** The network agents' weight syncs (the Q-table has none). */
class WeightSyncAllocTest : public ::testing::TestWithParam<core::AgentKind>
{
};

TEST_P(WeightSyncAllocTest, WeightSyncsAllocateNothing)
{
#if !SIBYL_ALLOC_COUNTING_RELIABLE
    GTEST_SKIP() << "sanitizer allocator interposes operator new";
#endif
    // A weight sync every 250 requests inside the measured window: each
    // copies the training weights into the inference network, so the
    // next decision rebuilds every layer's cached W^T.
    trace::Trace t = trace::makeWorkload("prxy_1", 6000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages());
    hss::HybridSystem sys(std::move(specs), 42);
    core::SibylConfig cfg = requestPathConfig(GetParam());
    cfg.targetSyncEvery = 250;
    core::SibylPolicy policy(cfg, sys.numDevices());

    replay(t, sys, policy);
    policy.agent().trainRound(); // syncs publish only after a round
    const std::uint64_t syncsBefore = policy.agent().stats().weightSyncs;
    const std::uint64_t allocsBefore = gAllocs;
    const std::uint64_t freesBefore = gFrees;
    replay(t, sys, policy);
    const std::uint64_t allocs = gAllocs - allocsBefore;
    const std::uint64_t frees = gFrees - freesBefore;
    const std::uint64_t syncs =
        policy.agent().stats().weightSyncs - syncsBefore;

    ASSERT_GE(syncs, 20u);
    EXPECT_EQ(allocs, 0u) << "weight syncs and W^T rebuilds performed "
                          << allocs << " heap allocations over " << syncs
                          << " syncs";
    EXPECT_EQ(frees, 0u) << "weight syncs and W^T rebuilds performed "
                         << frees << " frees over " << syncs << " syncs";
}

TEST_P(RequestAllocTest, BoltzmannDecisionsAllocateNothing)
{
#if !SIBYL_ALLOC_COUNTING_RELIABLE
    GTEST_SKIP() << "sanitizer allocator interposes operator new";
#endif
    // Boltzmann exploration decodes every action's value (the qValues
    // decode) and samples from their softmax on every decision.
    trace::Trace t = trace::makeWorkload("prxy_1", 6000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages());
    hss::HybridSystem sys(std::move(specs), 42);
    core::SibylConfig cfg = requestPathConfig(GetParam());
    cfg.exploration.kind = rl::ExplorationKind::Boltzmann;
    core::SibylPolicy policy(cfg, sys.numDevices());

    replay(t, sys, policy);
    const std::uint64_t decisionsBefore = policy.agent().stats().decisions;
    const Counted c = replayCounted(t, sys, policy);
    const std::uint64_t decisions =
        policy.agent().stats().decisions - decisionsBefore;

    ASSERT_EQ(decisions, t.size());
    EXPECT_EQ(c.allocs, kAllocsPerTableRow * c.tableRows)
        << "Boltzmann decisions performed " << c.allocs
        << " heap allocations over " << decisions << " decisions ("
        << c.tableRows << " new Q-table rows)";
    EXPECT_EQ(c.frees, 0u) << "Boltzmann decisions performed " << c.frees
                           << " frees over " << decisions << " decisions";
}

/** Test-name suffix of an agent kind. */
std::string
kindName(const testing::TestParamInfo<core::AgentKind> &info)
{
    switch (info.param) {
      case core::AgentKind::Dqn: return "DQN";
      case core::AgentKind::C51: return "C51";
      case core::AgentKind::QTable: return "QTable";
    }
    return "?";
}

INSTANTIATE_TEST_SUITE_P(Agents, RequestAllocTest,
                         ::testing::Values(core::AgentKind::Dqn,
                                           core::AgentKind::C51,
                                           core::AgentKind::QTable),
                         kindName);
INSTANTIATE_TEST_SUITE_P(Agents, WeightSyncAllocTest,
                         ::testing::Values(core::AgentKind::Dqn,
                                           core::AgentKind::C51),
                         kindName);

/** Agent family and replay flavour of a training-round case. */
struct TrainingCase
{
    core::AgentKind kind;
    bool prioritized;
};

class TrainingAllocTest : public ::testing::TestWithParam<TrainingCase>
{
};

TEST_P(TrainingAllocTest, SteadyStateTrainingRoundsAllocateNothing)
{
#if !SIBYL_ALLOC_COUNTING_RELIABLE
    GTEST_SKIP() << "sanitizer allocator interposes operator new";
#endif
    // Synchronous training at the default cadence (a round every 125
    // requests, a weight sync every 500): sampling, target-cache
    // refills, the batched forward/backward, the head's loss and the
    // optimizer step all run inside the measured window.
    trace::Trace t = trace::makeWorkload("prxy_1", 6000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages());
    hss::HybridSystem sys(std::move(specs), 42);
    core::SibylConfig cfg;
    cfg.agentKind = GetParam().kind;
    cfg.prioritizedReplay = GetParam().prioritized;
    core::SibylPolicy policy(cfg, sys.numDevices());

    replay(t, sys, policy); // warm-up: fills the ring, sizes scratch
    const std::uint64_t roundsBefore = policy.agent().stats().trainingRounds;
    const std::uint64_t allocsBefore = gAllocs;
    const std::uint64_t freesBefore = gFrees;
    replay(t, sys, policy);
    const std::uint64_t allocs = gAllocs - allocsBefore;
    const std::uint64_t frees = gFrees - freesBefore;
    const std::uint64_t rounds =
        policy.agent().stats().trainingRounds - roundsBefore;

    ASSERT_GE(rounds, 10u);
    EXPECT_EQ(allocs, 0u) << "steady-state training performed " << allocs
                          << " heap allocations over " << rounds
                          << " rounds";
    EXPECT_EQ(frees, 0u) << "steady-state training performed " << frees
                         << " frees over " << rounds << " rounds";
}

INSTANTIATE_TEST_SUITE_P(
    Agents, TrainingAllocTest,
    ::testing::Values(TrainingCase{core::AgentKind::C51, false},
                      TrainingCase{core::AgentKind::C51, true},
                      TrainingCase{core::AgentKind::Dqn, false},
                      TrainingCase{core::AgentKind::Dqn, true}),
    [](const auto &info) {
        return std::string(info.param.kind == core::AgentKind::Dqn
                               ? "DQN"
                               : "C51") +
            (info.param.prioritized ? "_PER" : "_uniform");
    });

TEST(RequestAllocTest, CounterSeesOrdinaryAllocations)
{
#if !SIBYL_ALLOC_COUNTING_RELIABLE
    GTEST_SKIP() << "sanitizer allocator interposes operator new";
#endif
    // Meta-check: the counting allocator is actually wired in.
    const std::uint64_t before = gAllocs;
    auto *v = new std::vector<int>(100);
    EXPECT_GT(gAllocs, before);
    delete v;
}

} // namespace
} // namespace sibyl
