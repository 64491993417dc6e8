/**
 * @file
 * Tests for the quad-hybrid (4-device) extensibility path: the
 * H&M&L_SSD&L configuration builder, the generalized N-tier banding
 * heuristic, the automatic growth of Sibyl's action space and
 * observation vector, end-to-end placement across four tiers, and a
 * residency-consistency fuzz over the four-level eviction cascade.
 */

#include <gtest/gtest.h>

#include "core/sibyl_policy.hh"
#include "core/state.hh"
#include "hss/hybrid_system.hh"
#include "policies/tri_heuristic.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace sibyl
{
namespace
{

TEST(QuadConfig, BuildsFourSpeedOrderedDevices)
{
    const auto specs = hss::makeHssConfig("H&M&L_SSD&L", 10000, 0.05);
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].kind, device::DeviceKind::Nvm);
    EXPECT_EQ(specs[1].kind, device::DeviceKind::FlashSsd);
    EXPECT_EQ(specs[2].kind, device::DeviceKind::FlashSsd);
    EXPECT_EQ(specs[3].kind, device::DeviceKind::Hdd);

    // Speed-ordered: the effective random-read latency (base command
    // plus positioning — mechanical for the HDD, IOPS pacing for the
    // SSDs) strictly grows down the stack.
    auto effectiveReadUs = [](const device::DeviceSpec &s) {
        const double positioning = s.kind == device::DeviceKind::Hdd
            ? s.seekUs + s.rotationalUs
            : s.randomPenaltyUs(OpType::Read);
        return s.readLatencyUs + positioning;
    };
    for (std::size_t i = 0; i + 1 < specs.size(); i++)
        EXPECT_LT(effectiveReadUs(specs[i]), effectiveReadUs(specs[i + 1]))
            << "tier " << i;
}

TEST(QuadConfig, CapacityLadderRestrictsUpperTiers)
{
    const std::uint64_t wss = 10000;
    const auto specs = hss::makeHssConfig("H&M&L_SSD&L", wss, 0.05);
    EXPECT_EQ(specs[0].capacityPages, wss / 20); // 5%
    EXPECT_EQ(specs[1].capacityPages, wss / 10); // 10%
    EXPECT_EQ(specs[2].capacityPages, wss / 5);  // 20%
    EXPECT_GT(specs[3].capacityPages, wss);      // never evicts
}

TEST(QuadConfig, ExperimentReportsFourDevices)
{
    EXPECT_EQ(sim::numHssDevices("H&M&L_SSD&L"), 4u);
    EXPECT_EQ(sim::numHssDevices("H&M&L"), 3u);
    EXPECT_EQ(sim::numHssDevices("H&L"), 2u);
}

TEST(QuadConfig, StateEncoderGainsOneFeaturePerExtraDevice)
{
    core::FeatureConfig fc;
    EXPECT_EQ(core::StateEncoder(fc, 2).dimension(), 6u);
    EXPECT_EQ(core::StateEncoder(fc, 3).dimension(), 7u);
    EXPECT_EQ(core::StateEncoder(fc, 4).dimension(), 8u);
}

// --- MultiTierHeuristicPolicy -------------------------------------------

class QuadHeuristicTest : public ::testing::Test
{
  protected:
    QuadHeuristicTest()
        : sys_(hss::makeHssConfig("H&M&L_SSD&L", 4000, 0.05), 7)
    {}

    /** Access @p page @p times so its count reaches that value, then
     *  return the policy's placement for one more read. */
    DeviceId
    placementAfter(policies::MultiTierHeuristicPolicy &policy, PageId page,
                   int accesses, std::uint32_t sizePages = 1,
                   OpType op = OpType::Read)
    {
        trace::Request req;
        req.page = page;
        req.sizePages = sizePages;
        req.op = OpType::Read;
        for (int i = 0; i < accesses; i++) {
            now_ += 10.0;
            sys_.serve(now_, req, sys_.numDevices() - 1);
        }
        req.op = op;
        return policy.selectPlacement(sys_, req, 0);
    }

    hss::HybridSystem sys_;
    SimTime now_ = 0.0;
};

TEST_F(QuadHeuristicTest, BandsMapToTiers)
{
    policies::MultiTierHeuristicPolicy policy({16, 4, 1});
    // Never-seen page (count 0) -> slowest tier; sequential read so the
    // random-write bump does not fire.
    EXPECT_EQ(placementAfter(policy, 100, 0, 16), 3u);
    // Count 1..3 -> L_SSD tier.
    EXPECT_EQ(placementAfter(policy, 200, 1, 16), 2u);
    // Count 4..15 -> M tier.
    EXPECT_EQ(placementAfter(policy, 300, 5, 16), 1u);
    // Count >= 16 -> H tier.
    EXPECT_EQ(placementAfter(policy, 400, 16, 16), 0u);
}

TEST_F(QuadHeuristicTest, RandomWritePromotesOneTier)
{
    policies::MultiTierHeuristicPolicy policy({16, 4, 1});
    // A small (random) write with count in the L_SSD band moves up to M.
    EXPECT_EQ(placementAfter(policy, 500, 2, 1, OpType::Write), 1u);
    // A random *read* with the same count stays in its band.
    EXPECT_EQ(placementAfter(policy, 600, 2, 1, OpType::Read), 2u);
}

TEST_F(QuadHeuristicTest, ColdRandomWriteStaysFrozen)
{
    policies::MultiTierHeuristicPolicy policy({16, 4, 1});
    // Count 0 is below every band, including the coldest threshold, so
    // even a random write stays on the slowest device.
    EXPECT_EQ(placementAfter(policy, 700, 0, 1, OpType::Write), 3u);
}

TEST_F(QuadHeuristicTest, FewerThresholdsThanTiersStillValid)
{
    // A designer porting a tri-hybrid ladder unchanged: placements must
    // stay within range, with unreachable middle tiers defaulting down.
    policies::MultiTierHeuristicPolicy policy({8, 2});
    const DeviceId hot = placementAfter(policy, 800, 8, 16);
    const DeviceId cold = placementAfter(policy, 900, 0, 16);
    EXPECT_EQ(hot, 0u);
    EXPECT_EQ(cold, 3u);
}

TEST_F(QuadHeuristicTest, EmptyThresholdsFreezeEverything)
{
    // Degenerate designer input: no bands at all. Everything must land
    // on the slowest device and the random-write bump must not fire
    // (there is no coldest threshold to qualify against).
    policies::MultiTierHeuristicPolicy policy({});
    EXPECT_EQ(placementAfter(policy, 950, 0, 1, OpType::Write), 3u);
    EXPECT_EQ(placementAfter(policy, 960, 20, 16, OpType::Read), 3u);
}

TEST(QuadHeuristic, FactoryBuildsDescendingLadder)
{
    auto policy = sim::makePolicy("Heuristic-Multi-Tier", 4);
    auto *mt =
        dynamic_cast<policies::MultiTierHeuristicPolicy *>(policy.get());
    ASSERT_NE(mt, nullptr);
    ASSERT_EQ(mt->thresholds().size(), 3u);
    for (std::size_t i = 0; i + 1 < mt->thresholds().size(); i++)
        EXPECT_GT(mt->thresholds()[i], mt->thresholds()[i + 1]);
    EXPECT_GE(mt->thresholds().back(), 1u);
}

// --- Sibyl on four devices ----------------------------------------------

TEST(QuadSibyl, RunsEndToEndAndUsesAllTiers)
{
    trace::Trace t = trace::makeWorkload("usr_0", 8000);
    sim::RunSpec spec;
    spec.hssConfig = "H&M&L_SSD&L";
    spec.fastCapacityFrac = 0.05;

    core::SibylConfig scfg;
    scfg.exploration.epsilon = 0.05; // enough exploration to visit every action
    core::SibylPolicy sibyl(scfg, 4);
    const auto r = sim::runPolicyExperiment(
        spec, t, sibyl, sim::computeFastOnlyBaseline(spec, t, 42), 42);

    EXPECT_EQ(r.metrics.requests, t.size());
    EXPECT_GT(r.normalizedLatency, 0.0);
    ASSERT_EQ(r.metrics.placements.size(), 4u);
    std::uint64_t total = 0;
    for (auto c : r.metrics.placements) {
        EXPECT_GT(c, 0u);
        total += c;
    }
    EXPECT_EQ(total, t.size());
}

TEST(QuadSibyl, BeatsMistunedHeuristicOnHotWorkload)
{
    // A hot workload on a ladder whose bands are two octaves too cold:
    // the heuristic freezes hot data while Sibyl learns around it.
    trace::Trace t = trace::makeWorkload("rsrch_0", 10000);
    sim::RunSpec spec;
    spec.hssConfig = "H&M&L_SSD&L";
    spec.fastCapacityFrac = 0.05;
    const auto baseline = sim::computeFastOnlyBaseline(spec, t, 42);

    policies::MultiTierHeuristicPolicy mistuned({4096, 1024, 256});
    const auto hr = sim::runPolicyExperiment(spec, t, mistuned, baseline, 42);

    core::SibylConfig scfg;
    core::SibylPolicy sibyl(scfg, 4);
    const auto sr = sim::runPolicyExperiment(spec, t, sibyl, baseline, 42);

    EXPECT_LT(sr.normalizedLatency, hr.normalizedLatency);
}

// --- Four-level cascade fuzz ----------------------------------------------

class QuadFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuadFuzzTest, RandomActionsStayConsistent)
{
    Pcg32 rng(GetParam());
    auto specs = hss::makeHssConfig("H&M&L_SSD&L", 3000, 0.05);
    hss::HybridSystem sys(std::move(specs), GetParam());

    SimTime now = 0.0;
    for (int i = 0; i < 5000; i++) {
        trace::Request req;
        req.page = rng.nextBounded(3000);
        req.sizePages = 1 + rng.nextBounded(4);
        req.op = rng.nextBool(0.5) ? OpType::Write : OpType::Read;
        req.timestamp = now;
        const auto r =
            sys.serve(now, req, rng.nextBounded(sys.numDevices()));
        now = std::max(now + 1.0, r.finishUs);
    }

    // Residency counted from metadata must match device occupancy after
    // evictions have cascaded through all four levels.
    std::vector<std::uint64_t> resident(sys.numDevices(), 0);
    for (PageId p = 0; p < 3005; p++) {
        const DeviceId d = sys.placement(p);
        if (d != kNoDevice) {
            ASSERT_LT(d, sys.numDevices());
            resident[d]++;
        }
    }
    for (DeviceId d = 0; d < sys.numDevices(); d++) {
        EXPECT_EQ(resident[d], sys.device(d).usedPages()) << "device " << d;
        EXPECT_LE(sys.device(d).usedPages(),
                  sys.device(d).spec().capacityPages);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuadFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

} // namespace
} // namespace sibyl
