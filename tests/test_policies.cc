/**
 * @file
 * Behavioural tests for the baseline placement policies on crafted
 * traces and systems.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "hss/hybrid_system.hh"
#include "policies/archivist.hh"
#include "policies/cde.hh"
#include "policies/hps.hh"
#include "policies/oracle.hh"
#include "policies/rnn_hss.hh"
#include "policies/static_policies.hh"
#include "policies/tri_heuristic.hh"
#include "trace/workloads.hh"

namespace sibyl::policies
{
namespace
{

std::vector<device::DeviceSpec>
config(std::uint64_t fastPages = 64, std::uint64_t slowPages = 8192)
{
    auto h = device::deviceH();
    h.capacityPages = fastPages;
    auto m = device::deviceM();
    m.capacityPages = slowPages;
    return {h, m};
}

trace::Request
req(PageId page, std::uint32_t size, OpType op)
{
    return {0.0, page, size, op};
}

TEST(StaticPolicies, ExtremesPickEnds)
{
    hss::HybridSystem sys(config());
    FastOnlyPolicy fast;
    SlowOnlyPolicy slow;
    EXPECT_EQ(fast.selectPlacement(sys, req(1, 1, OpType::Read), 0), 0u);
    EXPECT_EQ(slow.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
    EXPECT_EQ(fast.name(), "Fast-Only");
    EXPECT_EQ(slow.name(), "Slow-Only");
}

TEST(Cde, HotWritesGoFast)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    // Page 5 becomes hot (>= 4 accesses).
    for (int i = 0; i < 5; i++)
        sys.serve(i, req(5, 1, OpType::Read), 1);
    // Hot write -> fast, even when large/sequential.
    EXPECT_EQ(cde.selectPlacement(sys, req(5, 16, OpType::Write), 9), 0u);
}

TEST(Cde, RandomSmallWritesGoFastColdSeqGoSlow)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    // Cold small (random) write -> fast.
    EXPECT_EQ(cde.selectPlacement(sys, req(7, 2, OpType::Write), 0), 0u);
    // Cold large (sequential) write -> slow.
    EXPECT_EQ(cde.selectPlacement(sys, req(8, 32, OpType::Write), 1), 1u);
}

TEST(Cde, ReadsKeepCurrentPlacement)
{
    hss::HybridSystem sys(config());
    CdePolicy cde;
    sys.serve(0.0, req(3, 1, OpType::Write), 0);
    EXPECT_EQ(cde.selectPlacement(sys, req(3, 1, OpType::Read), 1), 0u);
    // Unknown page reads -> slow.
    EXPECT_EQ(cde.selectPlacement(sys, req(99, 1, OpType::Read), 2), 1u);
}

TEST(Hps, HotSetFromPreviousEpoch)
{
    hss::HybridSystem sys(config());
    HpsConfig cfg;
    cfg.epochLength = 10;
    cfg.hotThreshold = 2;
    HpsPolicy hps(cfg);
    // Epoch 0: page 1 touched 5 times, page 2 once.
    std::size_t i = 0;
    for (; i < 5; i++)
        hps.selectPlacement(sys, req(1, 1, OpType::Read), i);
    hps.selectPlacement(sys, req(2, 1, OpType::Read), i++);
    for (; i < 10; i++)
        hps.selectPlacement(sys, req(3, 1, OpType::Read), i);
    // Epoch 1: page 1 is hot now; page 2 is not.
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 10), 0u);
    EXPECT_EQ(hps.selectPlacement(sys, req(2, 1, OpType::Read), 11), 1u);
}

TEST(Hps, ResetForgetsHotSet)
{
    hss::HybridSystem sys(config());
    HpsConfig cfg;
    cfg.epochLength = 4;
    cfg.hotThreshold = 1;
    HpsPolicy hps(cfg);
    for (std::size_t i = 0; i < 4; i++)
        hps.selectPlacement(sys, req(1, 1, OpType::Read), i);
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 4), 0u);
    hps.reset();
    EXPECT_EQ(hps.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(Archivist, ConservativeBeforeFirstEpoch)
{
    hss::HybridSystem sys(config());
    ArchivistPolicy arch;
    EXPECT_EQ(arch.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(Archivist, RejectsZeroEpochLength)
{
    // Used to reach reqIndex % 0 in selectPlacement() and kill the
    // process with SIGFPE.
    ArchivistConfig cfg;
    cfg.epochLength = 0;
    try {
        ArchivistPolicy arch(cfg);
        FAIL() << "epochLength = 0 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("epochLength"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Archivist, LearnsHotnessAcrossEpochs)
{
    hss::HybridSystem sys(config(/*fastPages=*/64, /*slowPages=*/65536));
    ArchivistConfig cfg;
    cfg.epochLength = 200;
    cfg.trainPasses = 4;
    ArchivistPolicy arch(cfg);
    // Two epochs where small-read pages are hot and large writes cold.
    std::size_t idx = 0;
    std::uint64_t fastDecisions = 0;
    for (int epoch = 0; epoch < 4; epoch++) {
        for (int i = 0; i < 100; i++) {
            // Hot page set 0..9, accessed repeatedly.
            auto a = arch.selectPlacement(
                sys, req(i % 10, 1, OpType::Read), idx++);
            sys.serve(static_cast<double>(idx), req(i % 10, 1,
                      OpType::Read), a);
            if (epoch == 3 && a == 0)
                fastDecisions++;
            // Cold pages: one-shot large writes.
            PageId coldPage = 1000 + static_cast<PageId>(idx) * 32;
            auto b = arch.selectPlacement(
                sys, req(coldPage, 24, OpType::Write), idx);
            sys.serve(static_cast<double>(idx),
                      req(coldPage, 24, OpType::Write), b);
            idx++;
        }
    }
    // By the last epoch the classifier should route most hot reads fast.
    EXPECT_GT(fastDecisions, 50u);
}

std::uint64_t
fnv1a(const void *bytes, std::size_t n,
      std::uint64_t h = 1469598103934665603ULL)
{
    const auto *c = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; i++) {
        h ^= c[i];
        h *= 1099511628211ULL;
    }
    return h;
}

// Pins Archivist's bits: 12 epochs of training on a fixed trace, then
// digests of the classifier's parameters and of every placement
// decision. Many of its dead-ReLU moment estimates sit at subnormal
// fixed points, so this also pins the optimizer on those values.
TEST(Archivist, TrainedBitsArePinned)
{
    const trace::Trace t = trace::makeWorkload("prxy_1", 6500, 7);
    hss::HybridSystem sys(config(256, t.addressSpacePages() + 64));
    ArchivistConfig cfg;
    cfg.epochLength = 500;
    ArchivistPolicy arch(cfg);
    std::uint64_t decisions = fnv1a(nullptr, 0);
    std::uint64_t fast = 0;
    for (std::size_t i = 0; i < t.size(); i++) {
        const DeviceId d = arch.selectPlacement(sys, t[i], i);
        sys.serve(t[i].timestamp, t[i], d);
        decisions = fnv1a(&d, sizeof(d), decisions);
        fast += d == 0;
    }
    const std::vector<float> params = arch.network().saveParams();
    const std::uint64_t paramDigest =
        fnv1a(params.data(), params.size() * sizeof(float));
    EXPECT_GT(fast, 0u);
    EXPECT_LT(fast, t.size());
    char hex[64];
    std::snprintf(hex, sizeof(hex), "0x%016llX 0x%016llX",
                  static_cast<unsigned long long>(paramDigest),
                  static_cast<unsigned long long>(decisions));
    EXPECT_EQ(paramDigest, 0xAF23C28DFF608389ULL)
        << "digests are now " << hex;
    EXPECT_EQ(decisions, 0xB0A981F0B37E95A3ULL)
        << "digests are now " << hex;
}

TEST(RnnHss, UntrainedStaysSlow)
{
    hss::HybridSystem sys(config());
    RnnHssPolicy rnn;
    EXPECT_EQ(rnn.selectPlacement(sys, req(1, 1, OpType::Read), 0), 1u);
}

TEST(RnnHss, TrainsOfflineAndPlacesHotPages)
{
    trace::Trace t = trace::makeWorkload("prxy_1", 8000);
    auto specs = hss::makeHssConfig("H&M", t.uniquePages(), 0.10);
    hss::HybridSystem sys(specs, 1);
    RnnHssPolicy rnn;
    rnn.prepare(t, sys);
    std::uint64_t fast = 0;
    for (std::size_t i = 0; i < t.size(); i++) {
        auto a = rnn.selectPlacement(sys, t[i], i);
        sys.serve(t[i].timestamp, t[i], a);
        fast += a == 0;
    }
    // A hot workload must produce a meaningful number of fast decisions.
    EXPECT_GT(fast, t.size() / 20);
}

TEST(Oracle, AdmitsReusedDeniesSingleUse)
{
    trace::Trace t("crafted");
    // Page 1 reused immediately; page 100 never again.
    t.add({0.0, 1, 1, OpType::Read});
    t.add({1.0, 100, 1, OpType::Read});
    t.add({2.0, 1, 1, OpType::Read});
    auto specs = config();
    hss::HybridSystem sys(specs);
    OraclePolicy oracle;
    oracle.prepare(t, sys);
    EXPECT_EQ(oracle.selectPlacement(sys, t[0], 0), 0u); // reused soon
    EXPECT_EQ(oracle.selectPlacement(sys, t[1], 1), 1u); // never again
}

TEST(Oracle, BeladyVictimIsFarthestFuture)
{
    OracleConfig ocfg;
    ocfg.beladyVictims = true;
    trace::Trace t("crafted");
    // Three pages admitted; page 30 reused farthest in the future.
    t.add({0.0, 10, 1, OpType::Write});
    t.add({1.0, 20, 1, OpType::Write});
    t.add({2.0, 30, 1, OpType::Write});
    t.add({3.0, 40, 1, OpType::Write}); // forces eviction (cap 3)
    t.add({4.0, 10, 1, OpType::Read});
    t.add({5.0, 20, 1, OpType::Read});
    t.add({6.0, 40, 1, OpType::Read});
    t.add({9.0, 30, 1, OpType::Read}); // farthest
    auto specs = config(/*fastPages=*/3);
    hss::HybridSystem sys(specs);
    OraclePolicy oracle(ocfg);
    oracle.prepare(t, sys);
    for (std::size_t i = 0; i < 4; i++) {
        auto a = oracle.selectPlacement(sys, t[i], i);
        sys.serve(t[i].timestamp, t[i], a);
    }
    // Page 30 (farthest next use) was evicted to make room for 40.
    EXPECT_EQ(sys.placement(30), 1u);
    EXPECT_EQ(sys.placement(10), 0u);
    EXPECT_EQ(sys.placement(20), 0u);
    EXPECT_EQ(sys.placement(40), 0u);
}

TEST(TriHeuristic, HotColdFrozenSplit)
{
    auto specs = hss::makeHssConfig("H&M&L", 10000, 0.05);
    hss::HybridSystem sys(specs);
    TriHeuristicPolicy tri;
    // Frozen: never-seen large read.
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 0), 2u);
    // Warm it up to cold (2-7 accesses) -> M.
    for (int i = 0; i < 3; i++)
        sys.serve(i, req(1, 1, OpType::Read), 2);
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 5), 1u);
    // Hot (>= 8 accesses) -> H.
    for (int i = 0; i < 6; i++)
        sys.serve(10 + i, req(1, 1, OpType::Read), 1);
    EXPECT_EQ(tri.selectPlacement(sys, req(1, 16, OpType::Read), 9), 0u);
}

TEST(TriHeuristic, RandomColdWritesGoFast)
{
    auto specs = hss::makeHssConfig("H&M&L", 10000, 0.05);
    hss::HybridSystem sys(specs);
    TriHeuristicPolicy tri;
    // 2 prior accesses (cold) + small write -> H per the CDE heritage.
    sys.serve(0, req(2, 1, OpType::Read), 2);
    sys.serve(1, req(2, 1, OpType::Read), 2);
    EXPECT_EQ(tri.selectPlacement(sys, req(2, 2, OpType::Write), 2), 0u);
}

} // namespace
} // namespace sibyl::policies
