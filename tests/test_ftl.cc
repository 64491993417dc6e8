/**
 * @file
 * Tests for the page-mapped FTL: geometry derivation, mapping
 * correctness, garbage-collection mechanics, write amplification, wear
 * accounting, victim policies, and randomized invariant checking.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "device/block_device.hh"
#include "device/device_spec.hh"
#include "ftl/ftl.hh"
#include "ftl/wear_stats.hh"
#include "sim/parallel_runner.hh"

namespace sibyl::ftl
{
namespace
{

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

TEST(FlashGeometry, MakeGeometryExportsRequestedCapacity)
{
    const FlashGeometry g = makeGeometry(10000, 0.07, 256);
    EXPECT_EQ(g.exportedPages, 10000u);
    EXPECT_TRUE(g.valid());
    EXPECT_GE(g.totalPages(), g.exportedPages + g.pagesPerBlock);
}

TEST(FlashGeometry, OverprovisionAtLeastRequested)
{
    const FlashGeometry g = makeGeometry(100000, 0.10, 128);
    EXPECT_GE(g.overprovisionFraction(), 0.08);
}

TEST(FlashGeometry, TinyCapacityStillLeavesSpareBlocks)
{
    const FlashGeometry g = makeGeometry(10, 0.07, 8);
    EXPECT_TRUE(g.valid());
    EXPECT_GE(g.totalBlocks, 3u);
    EXPECT_GE(g.sparePages(), static_cast<std::uint64_t>(g.pagesPerBlock));
}

TEST(FlashGeometry, ZeroOverprovisionClampStillValid)
{
    const FlashGeometry g = makeGeometry(1000, 0.0, 64);
    EXPECT_TRUE(g.valid());
}

TEST(FlashGeometry, MakeGeometryRejectsBadConfigByName)
{
    for (const auto &[exported, ppb, field] :
         {std::tuple{std::uint64_t{0}, 64u, "exportedPages"},
          std::tuple{std::uint64_t{1000}, 1u, "pagesPerBlock"},
          std::tuple{std::uint64_t{1000}, 0u, "pagesPerBlock"}}) {
        try {
            makeGeometry(exported, 0.07, ppb);
            ADD_FAILURE() << field << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }
}

TEST(FlashGeometry, InvalidGeometryDetected)
{
    FlashGeometry g;
    g.pagesPerBlock = 1; // too small
    g.totalBlocks = 10;
    g.exportedPages = 100;
    EXPECT_FALSE(g.valid());
}

// ---------------------------------------------------------------------
// Basic mapping
// ---------------------------------------------------------------------

TEST(Ftl, FreshDeviceIsEmpty)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    EXPECT_EQ(f.mappedPages(), 0u);
    EXPECT_EQ(f.freeBlocks(), f.geometry().totalBlocks);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(Ftl, WriteMapsPage)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    f.write(42, 0.0);
    EXPECT_TRUE(f.isMapped(42));
    EXPECT_EQ(f.mappedPages(), 1u);
    EXPECT_EQ(f.stats().hostWrites, 1u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(Ftl, ReadOfUnmappedPageIsMiss)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    const FtlOpResult r = f.read(7);
    EXPECT_FALSE(r.mapped);
    EXPECT_EQ(f.stats().readMisses, 1u);
}

TEST(Ftl, ReadOfWrittenPageHits)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    f.write(7, 0.0);
    const FtlOpResult r = f.read(7);
    EXPECT_TRUE(r.mapped);
    EXPECT_EQ(f.stats().readMisses, 0u);
}

TEST(Ftl, OverwriteKeepsSingleMapping)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    for (int i = 0; i < 100; i++)
        f.write(5, static_cast<SimTime>(i));
    EXPECT_EQ(f.mappedPages(), 1u);
    EXPECT_EQ(f.stats().hostWrites, 100u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(Ftl, TrimUnmapsPage)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    f.write(9, 0.0);
    const FtlOpResult r = f.trim(9);
    EXPECT_TRUE(r.mapped);
    EXPECT_FALSE(f.isMapped(9));
    EXPECT_EQ(f.stats().hostTrims, 1u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(Ftl, TrimOfUnmappedPageIsNoop)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    const FtlOpResult r = f.trim(9);
    EXPECT_FALSE(r.mapped);
    EXPECT_EQ(f.stats().hostTrims, 0u);
}

TEST(Ftl, SparseLogicalAddressesSupported)
{
    PageMappedFtl f(makeGeometry(100, 0.1, 16));
    f.write(1ull << 40, 0.0);
    f.write(3, 0.0);
    f.write(999999999ull, 0.0);
    EXPECT_EQ(f.mappedPages(), 3u);
    EXPECT_TRUE(f.isMapped(1ull << 40));
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(Ftl, ResetRestoresFreshState)
{
    PageMappedFtl f(makeGeometry(500, 0.1, 16));
    for (PageId p = 0; p < 500; p++)
        f.write(p, 0.0);
    f.reset();
    EXPECT_EQ(f.mappedPages(), 0u);
    EXPECT_EQ(f.freeBlocks(), f.geometry().totalBlocks);
    EXPECT_EQ(f.stats().hostWrites, 0u);
    EXPECT_EQ(f.checkInvariants(), "");
}

// ---------------------------------------------------------------------
// Garbage collection and write amplification
// ---------------------------------------------------------------------

TEST(FtlGc, SequentialFillNoGcNeeded)
{
    // Writing each page exactly once creates no stale data, so GC has
    // nothing to reclaim and WA stays 1.0.
    PageMappedFtl f(makeGeometry(2000, 0.2, 32));
    for (PageId p = 0; p < 2000; p++)
        f.write(p, static_cast<SimTime>(p));
    EXPECT_EQ(f.stats().gcCopies, 0u);
    EXPECT_DOUBLE_EQ(f.stats().writeAmplification(), 1.0);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(FtlGc, OverwriteChurnTriggersGc)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    Pcg32 rng(123);
    // Fill, then overwrite randomly well past the physical capacity.
    for (PageId p = 0; p < 1000; p++)
        f.write(p, static_cast<SimTime>(p));
    for (int i = 0; i < 20000; i++)
        f.write(rng.nextBounded(1000), 1000.0 + i);
    EXPECT_GT(f.stats().gcRuns, 0u);
    EXPECT_GT(f.stats().erases, 0u);
    EXPECT_GT(f.stats().writeAmplification(), 1.0);
    EXPECT_EQ(f.mappedPages(), 1000u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(FtlGc, WriteAmplificationLowerWithMoreOverprovisioning)
{
    // Classic FTL result: more spare space => fewer relocations.
    auto churn = [](double op) {
        PageMappedFtl f(makeGeometry(4000, op, 64));
        Pcg32 rng(7);
        for (PageId p = 0; p < 4000; p++)
            f.write(p, static_cast<SimTime>(p));
        for (int i = 0; i < 60000; i++)
            f.write(rng.nextBounded(4000), 4000.0 + i);
        return f.stats().writeAmplification();
    };
    const double waSmall = churn(0.05);
    const double waLarge = churn(0.30);
    EXPECT_GT(waSmall, waLarge);
    EXPECT_GT(waSmall, 1.0);
}

TEST(FtlGc, GcPreservesData)
{
    // Every mapped page must survive arbitrary GC churn.
    PageMappedFtl f(makeGeometry(300, 0.08, 16));
    Pcg32 rng(99);
    std::set<PageId> live;
    for (int i = 0; i < 30000; i++) {
        const PageId p = rng.nextBounded(300);
        f.write(p, static_cast<SimTime>(i));
        live.insert(p);
    }
    EXPECT_EQ(f.mappedPages(), live.size());
    for (PageId p : live)
        EXPECT_TRUE(f.isMapped(p)) << "lost page " << p;
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(FtlGc, CapacityGuardRejectsOverfill)
{
    PageMappedFtl f(makeGeometry(100, 0.1, 16));
    for (PageId p = 0; p < 100; p++)
        f.write(p, 0.0);
    EXPECT_EXIT(f.write(100, 0.0), ::testing::ExitedWithCode(1),
                "beyond exported capacity");
}

TEST(FtlGc, TrimMakesRoomForNewPages)
{
    PageMappedFtl f(makeGeometry(100, 0.1, 16));
    for (PageId p = 0; p < 100; p++)
        f.write(p, 0.0);
    f.trim(0);
    EXPECT_NO_THROW(f.write(200, 1.0));
    EXPECT_EQ(f.mappedPages(), 100u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(FtlGc, OpResultReportsRelocationWork)
{
    PageMappedFtl f(makeGeometry(500, 0.06, 16));
    Pcg32 rng(5);
    for (PageId p = 0; p < 500; p++)
        f.write(p, static_cast<SimTime>(p));
    std::uint64_t copies = 0;
    std::uint64_t erases = 0;
    for (int i = 0; i < 20000; i++) {
        const FtlOpResult r = f.write(rng.nextBounded(500), 500.0 + i);
        copies += r.gcPageCopies;
        erases += r.erases;
    }
    EXPECT_EQ(copies, f.stats().gcCopies);
    EXPECT_EQ(erases, f.stats().erases);
    EXPECT_GT(copies, 0u);
}

// ---------------------------------------------------------------------
// Victim policies
// ---------------------------------------------------------------------

TEST(GcPolicy, GreedyPicksFewestValid)
{
    std::vector<FlashBlock> blocks(3, FlashBlock(4));
    for (int b = 0; b < 3; b++) {
        for (std::uint32_t s = 0; s < 4; s++)
            blocks[b].program(100 * b + s, 0.0);
        blocks[b].setState(BlockState::Closed);
    }
    blocks[1].invalidate(0);
    blocks[1].invalidate(1);
    blocks[2].invalidate(0);
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 1.0), 1u);
}

TEST(GcPolicy, GreedyIgnoresNonClosedBlocks)
{
    std::vector<FlashBlock> blocks(2, FlashBlock(4));
    blocks[0].program(1, 0.0); // open, nearly empty
    blocks[0].setState(BlockState::Open);
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[1].program(10 + s, 0.0);
    blocks[1].setState(BlockState::Closed);
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 1.0), 1u);
}

TEST(GcPolicy, NoClosedBlocksReturnsSentinel)
{
    std::vector<FlashBlock> blocks(2, FlashBlock(4));
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 0.0), kNoBlock);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 0.0), kNoBlock);
    EXPECT_EQ(FifoGc().pickVictim(blocks, 0.0), kNoBlock);
}

TEST(GcPolicy, CostBenefitPrefersColdBlocks)
{
    // Two blocks with equal valid counts; the colder (older) one wins.
    std::vector<FlashBlock> blocks(2, FlashBlock(4));
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[0].program(s, 10.0); // old
    blocks[0].invalidate(0);
    blocks[0].setState(BlockState::Closed);
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[1].program(10 + s, 9000.0); // recent
    blocks[1].invalidate(0);
    blocks[1].setState(BlockState::Closed);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 10000.0), 0u);
}

TEST(GcPolicy, CostBenefitAvoidsFullyValidWhenStaleExists)
{
    std::vector<FlashBlock> blocks(2, FlashBlock(4));
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[0].program(s, 0.0); // fully valid and ancient
    blocks[0].setState(BlockState::Closed);
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[1].program(10 + s, 5000.0);
    blocks[1].invalidate(2); // one stale page, recent
    blocks[1].setState(BlockState::Closed);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 6000.0), 1u);
}

TEST(GcPolicy, FifoPicksOldest)
{
    std::vector<FlashBlock> blocks(3, FlashBlock(2));
    const SimTime times[] = {50.0, 10.0, 30.0};
    for (int b = 0; b < 3; b++) {
        blocks[b].program(b * 2, times[b]);
        blocks[b].program(b * 2 + 1, times[b]);
        blocks[b].setState(BlockState::Closed);
    }
    EXPECT_EQ(FifoGc().pickVictim(blocks, 100.0), 1u);
}

TEST(GcPolicy, PoliciesProduceDifferentAmplification)
{
    // Hot/cold split workload: cost-benefit should not be *worse* than
    // FIFO on average; both must preserve correctness.
    auto churn = [](std::unique_ptr<GcVictimPolicy> gc) {
        PageMappedFtl f(makeGeometry(2000, 0.1, 32), std::move(gc));
        Pcg32 rng(11);
        for (PageId p = 0; p < 2000; p++)
            f.write(p, static_cast<SimTime>(p));
        for (int i = 0; i < 40000; i++) {
            // 90% of writes hit the 10% hot set.
            const PageId p = rng.nextBool(0.9)
                ? rng.nextBounded(200)
                : 200 + rng.nextBounded(1800);
            f.write(p, 2000.0 + i);
        }
        EXPECT_EQ(f.checkInvariants(), "");
        return f.stats().writeAmplification();
    };
    const double waGreedy = churn(std::make_unique<GreedyGc>());
    const double waCb = churn(std::make_unique<CostBenefitGc>());
    const double waFifo = churn(std::make_unique<FifoGc>());
    EXPECT_GT(waGreedy, 1.0);
    EXPECT_GT(waCb, 1.0);
    EXPECT_GT(waFifo, 1.0);
    EXPECT_LE(waCb, waFifo * 1.05);
}

// ---------------------------------------------------------------------
// Wear accounting
// ---------------------------------------------------------------------

TEST(WearStats, FreshDeviceNoWear)
{
    PageMappedFtl f(makeGeometry(1000, 0.1, 32));
    const WearReport r = makeWearReport(f);
    EXPECT_EQ(r.totalErases, 0u);
    EXPECT_EQ(r.maxErases, 0u);
    EXPECT_DOUBLE_EQ(r.lifeConsumed, 0.0);
    EXPECT_DOUBLE_EQ(r.writeAmplification, 1.0);
}

TEST(WearStats, ChurnAccumulatesWear)
{
    PageMappedFtl f(makeGeometry(500, 0.1, 16));
    Pcg32 rng(3);
    for (int i = 0; i < 40000; i++)
        f.write(rng.nextBounded(500), static_cast<SimTime>(i));
    const WearReport r = makeWearReport(f, 3000);
    EXPECT_GT(r.totalErases, 0u);
    EXPECT_GE(r.maxErases, r.minErases);
    EXPECT_GT(r.meanErases, 0.0);
    EXPECT_GE(r.imbalance, 1.0);
    EXPECT_GT(r.lifeConsumed, 0.0);
    EXPECT_EQ(r.totalErases, f.stats().erases);
}

TEST(WearStats, LifeConsumedScalesWithRating)
{
    PageMappedFtl f(makeGeometry(500, 0.1, 16));
    Pcg32 rng(3);
    for (int i = 0; i < 40000; i++)
        f.write(rng.nextBounded(500), static_cast<SimTime>(i));
    const WearReport r1k = makeWearReport(f, 1000);
    const WearReport r3k = makeWearReport(f, 3000);
    EXPECT_NEAR(r1k.lifeConsumed, 3.0 * r3k.lifeConsumed, 1e-12);
}

TEST(WearStats, DivisionEdgeCases)
{
    // Table-driven pinning of the report's division edge cases: a
    // fresh device (mean erases 0) reports perfectly even wear, and a
    // zero P/E rating reports zero consumed life rather than dividing
    // by the rating.
    struct Case {
        const char *name;
        int churnWrites;
        std::uint64_t ratedPeCycles;
        double wantImbalance; ///< exact when >= 0, else just >= 1.0
        double wantLifeConsumed;
    };
    const Case cases[] = {
        {"fresh device, rated budget", 0, 3000, 1.0, 0.0},
        {"fresh device, zero budget", 0, 0, 1.0, 0.0},
        {"worn device, zero budget", 30000, 0, -1.0, 0.0},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        PageMappedFtl f(makeGeometry(400, 0.1, 16));
        Pcg32 rng(21);
        for (int i = 0; i < c.churnWrites; i++)
            f.write(rng.nextBounded(400), static_cast<SimTime>(i));
        const WearReport r = makeWearReport(f, c.ratedPeCycles);
        if (c.wantImbalance >= 0.0)
            EXPECT_DOUBLE_EQ(r.imbalance, c.wantImbalance);
        else
            EXPECT_GE(r.imbalance, 1.0);
        EXPECT_DOUBLE_EQ(r.lifeConsumed, c.wantLifeConsumed);
    }
}

TEST(WearStats, HistogramSumsToBlockCount)
{
    PageMappedFtl f(makeGeometry(400, 0.1, 16));
    Pcg32 rng(9);
    for (int i = 0; i < 30000; i++)
        f.write(rng.nextBounded(400), static_cast<SimTime>(i));
    const WearReport r = makeWearReport(f);
    ASSERT_EQ(r.histogram.size(), WearReport::kHistogramBins);
    std::uint64_t sum = 0;
    for (std::uint64_t c : r.histogram)
        sum += c;
    EXPECT_EQ(sum, f.blocks().size());
    EXPECT_GT(r.maxErases, r.minErases); // churn spreads the counts
}

TEST(WearStats, HistogramEvenWearLandsInBinZero)
{
    PageMappedFtl f(makeGeometry(400, 0.1, 16));
    const WearReport r = makeWearReport(f);
    ASSERT_EQ(r.histogram.size(), WearReport::kHistogramBins);
    EXPECT_EQ(r.histogram[0], f.blocks().size());
    for (std::uint32_t b = 1; b < WearReport::kHistogramBins; b++)
        EXPECT_EQ(r.histogram[b], 0u);
}

TEST(WearStats, MaxEraseTrackerMatchesReport)
{
    PageMappedFtl f(makeGeometry(300, 0.1, 16));
    Pcg32 rng(8);
    for (int i = 0; i < 30000; i++)
        f.write(rng.nextBounded(300), static_cast<SimTime>(i));
    const WearReport r = makeWearReport(f);
    EXPECT_EQ(f.maxEraseCount(), r.maxErases);
    EXPECT_GT(r.maxErases, 0u);
}

// ---------------------------------------------------------------------
// Write-amplification accounting (host-write-relative)
// ---------------------------------------------------------------------

TEST(FtlWa, OneBeforeFirstHostWrite)
{
    // The WA ratio is defined relative to host writes; with none yet it
    // must read as the no-GC identity, not 0/0.
    PageMappedFtl f(makeGeometry(100, 0.1, 16));
    EXPECT_DOUBLE_EQ(f.stats().writeAmplification(), 1.0);
    f.read(5);
    f.trim(5);
    EXPECT_DOUBLE_EQ(f.stats().writeAmplification(), 1.0);
}

TEST(FtlWa, DifferentialAgainstHandCountedTrace)
{
    // Count host writes and GC relocations independently from the
    // per-op results while replaying a churn trace; the stats ratio
    // must equal (host + copies) / host exactly — relocations are the
    // only non-host term in the numerator, and erases/trims/reads
    // never enter it.
    PageMappedFtl f(makeGeometry(300, 0.08, 16));
    Pcg32 rng(31);
    std::uint64_t host = 0;
    std::uint64_t copies = 0;
    for (int i = 0; i < 25000; i++) {
        const FtlOpResult r =
            f.write(rng.nextBounded(300), static_cast<SimTime>(i));
        host++;
        copies += r.gcPageCopies;
    }
    for (PageId p = 0; p < 50; p++) {
        f.read(p);
        f.trim(p);
    }
    EXPECT_GT(copies, 0u);
    EXPECT_EQ(f.stats().hostWrites, host);
    EXPECT_EQ(f.stats().gcCopies, copies);
    EXPECT_DOUBLE_EQ(f.stats().writeAmplification(),
                     static_cast<double>(host + copies) /
                         static_cast<double>(host));
}

// ---------------------------------------------------------------------
// GC forward progress and victim determinism
// ---------------------------------------------------------------------

TEST(FtlGc, FullSpanOverwriteNoLivelock)
{
    // Worst case for forward progress: the host holds the full exported
    // span and rewrites it sequentially, so closed blocks are routinely
    // all-valid and every reclaim relocates a full block against the
    // two-spare-block floor. The FTL must keep making progress (each
    // reclaim frees exactly one block's worth of stale space).
    PageMappedFtl f(makeGeometry(320, 0.0, 16));
    for (int round = 0; round < 30; round++)
        for (PageId p = 0; p < 320; p++)
            f.write(p, static_cast<SimTime>(round * 320 + p));
    EXPECT_EQ(f.mappedPages(), 320u);
    EXPECT_GT(f.stats().gcRuns, 0u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(GcPolicy, TieBreaksToLowestBlockId)
{
    // Three identical closed blocks tie under every policy; each must
    // deterministically pick the lowest block id so victim order (and
    // with it every downstream erase count) is platform-stable.
    std::vector<FlashBlock> blocks(3, FlashBlock(4));
    for (int b = 0; b < 3; b++) {
        for (std::uint32_t s = 0; s < 4; s++)
            blocks[b].program(100 * b + s, 7.0);
        blocks[b].invalidate(0);
        blocks[b].setState(BlockState::Closed);
    }
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 100.0), 0u);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 100.0), 0u);
    EXPECT_EQ(FifoGc().pickVictim(blocks, 100.0), 0u);
}

TEST(GcPolicy, TieBreakSkipsIneligibleLeadingBlocks)
{
    // Same tie, but block 0 is open: the lowest *eligible* id wins.
    std::vector<FlashBlock> blocks(4, FlashBlock(4));
    blocks[0].program(1, 7.0);
    blocks[0].setState(BlockState::Open);
    for (int b = 1; b < 4; b++) {
        for (std::uint32_t s = 0; s < 4; s++)
            blocks[b].program(100 * b + s, 7.0);
        blocks[b].invalidate(0);
        blocks[b].setState(BlockState::Closed);
    }
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 100.0), 1u);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 100.0), 1u);
    EXPECT_EQ(FifoGc().pickVictim(blocks, 100.0), 1u);
}

TEST(GcPolicy, BadBlocksNeverSelected)
{
    std::vector<FlashBlock> blocks(2, FlashBlock(4));
    blocks[0].setState(BlockState::Bad);
    for (std::uint32_t s = 0; s < 4; s++)
        blocks[1].program(s, 1.0);
    blocks[1].setState(BlockState::Closed);
    EXPECT_EQ(GreedyGc().pickVictim(blocks, 10.0), 1u);
    EXPECT_EQ(CostBenefitGc().pickVictim(blocks, 10.0), 1u);
    EXPECT_EQ(FifoGc().pickVictim(blocks, 10.0), 1u);
}

// ---------------------------------------------------------------------
// Endurance: retirement, wear leveling, spare floor
// ---------------------------------------------------------------------

TEST(FtlEndurance, DefaultConfigIsInert)
{
    // Configuring an all-off endurance config must not perturb any
    // counter relative to never calling configureEndurance at all (no
    // RNG draws, no retirement, no wear leveling).
    auto run = [](bool configure) {
        PageMappedFtl f(makeGeometry(300, 0.08, 16));
        if (configure)
            f.configureEndurance(FtlEnduranceConfig{});
        Pcg32 rng(4);
        for (int i = 0; i < 20000; i++)
            f.write(rng.nextBounded(300), static_cast<SimTime>(i));
        return f.stats();
    };
    const FtlStats a = run(false);
    const FtlStats b = run(true);
    EXPECT_EQ(a.erases, b.erases);
    EXPECT_EQ(a.gcCopies, b.gcCopies);
    EXPECT_EQ(a.gcRuns, b.gcRuns);
    EXPECT_EQ(b.retiredBlocks, 0u);
    EXPECT_EQ(b.wearLevelRuns, 0u);
}

TEST(FtlEndurance, RatedWearRetiresBlocks)
{
    PageMappedFtl f(makeGeometry(300, 0.1, 16));
    FtlEnduranceConfig cfg;
    cfg.ratedPeCycles = 5;
    cfg.rngSeed = 77;
    f.configureEndurance(cfg);
    Pcg32 rng(4);
    for (int i = 0; i < 60000; i++)
        f.write(rng.nextBounded(300), static_cast<SimTime>(i));
    EXPECT_GT(f.retiredBlocks(), 0u);
    EXPECT_EQ(f.stats().retiredBlocks, f.retiredBlocks());
    // Retired blocks sit erased in the Bad state at or past the rated
    // budget, and the data survives the shrinking spare pool.
    std::uint32_t bad = 0;
    for (const auto &b : f.blocks()) {
        if (b.state() != BlockState::Bad)
            continue;
        bad++;
        EXPECT_EQ(b.validCount(), 0u);
        EXPECT_GE(b.eraseCount(), cfg.ratedPeCycles);
    }
    EXPECT_EQ(bad, f.retiredBlocks());
    EXPECT_EQ(f.mappedPages(), 300u);
    EXPECT_EQ(f.checkInvariants(), "");
}

TEST(FtlEndurance, GrownBadScheduleDeterministicPerSeed)
{
    // Identical seeds replay the identical retirement schedule;
    // a different seed draws a different one. The grown-bad RNG is a
    // private stream, so this holds independently of any other
    // randomness in the process.
    auto wearFingerprint = [](std::uint64_t seed) {
        PageMappedFtl f(makeGeometry(300, 0.1, 16));
        FtlEnduranceConfig cfg;
        cfg.grownBadProb = 0.05;
        cfg.rngSeed = seed;
        f.configureEndurance(cfg);
        Pcg32 rng(4);
        for (int i = 0; i < 40000; i++)
            f.write(rng.nextBounded(300), static_cast<SimTime>(i));
        EXPECT_EQ(f.checkInvariants(), "");
        EXPECT_GT(f.retiredBlocks(), 0u);
        std::vector<std::uint64_t> fp;
        for (const auto &b : f.blocks())
            fp.push_back(b.eraseCount() * 2 +
                         (b.state() == BlockState::Bad ? 1 : 0));
        return fp;
    };
    const auto a = wearFingerprint(123);
    const auto b = wearFingerprint(123);
    const auto c = wearFingerprint(456);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(FtlEndurance, RetirementStopsAtSpareFloor)
{
    // Every erase grows a bad block: retirement eats spares only down
    // to the two-block floor, then stops — the FTL degrades to a fixed
    // worst state and keeps serving (the owning device is what fails
    // out, not the FTL).
    PageMappedFtl f(makeGeometry(200, 0.3, 16));
    FtlEnduranceConfig cfg;
    cfg.grownBadProb = 1.0;
    cfg.rngSeed = 5;
    f.configureEndurance(cfg);
    EXPECT_FALSE(f.spareFloorBreached());
    Pcg32 rng(4);
    for (int i = 0; i < 60000; i++)
        f.write(rng.nextBounded(200), static_cast<SimTime>(i));
    EXPECT_TRUE(f.spareFloorBreached());
    EXPECT_EQ(f.mappedPages(), 200u);
    EXPECT_EQ(f.checkInvariants(), "");
    // Breach means retirement ate into the geometry's 5-spare-block
    // forward-progress floor — and stopped there.
    const FlashGeometry &g = f.geometry();
    const std::uint64_t minBlocks =
        (g.exportedPages + g.pagesPerBlock - 1) / g.pagesPerBlock + 5;
    EXPECT_LT(g.totalBlocks - f.retiredBlocks(), minBlocks);
    EXPECT_GE(g.totalBlocks - f.retiredBlocks(), minBlocks - 1);
}

TEST(FtlEndurance, WearLevelingNarrowsEraseSpread)
{
    // Hot/cold split (10% of pages take 90% of writes): without wear
    // leveling, all-valid cold blocks pin their erase counts while hot
    // blocks churn; with a spread threshold the cold data is migrated
    // back into rotation and the max-min gap shrinks.
    auto eraseGap = [](std::uint64_t wls) {
        PageMappedFtl f(makeGeometry(1000, 0.1, 32));
        if (wls > 0) {
            FtlEnduranceConfig cfg;
            cfg.wearLevelSpread = wls;
            f.configureEndurance(cfg);
        }
        Pcg32 rng(11);
        for (PageId p = 0; p < 1000; p++)
            f.write(p, static_cast<SimTime>(p));
        for (int i = 0; i < 60000; i++) {
            const PageId p = rng.nextBool(0.9)
                ? rng.nextBounded(100)
                : 100 + rng.nextBounded(900);
            f.write(p, 1000.0 + i);
        }
        EXPECT_EQ(f.checkInvariants(), "");
        if (wls > 0)
            EXPECT_GT(f.stats().wearLevelRuns, 0u);
        else
            EXPECT_EQ(f.stats().wearLevelRuns, 0u);
        const WearReport r = makeWearReport(f);
        return r.maxErases - r.minErases;
    };
    const std::uint64_t gapOff = eraseGap(0);
    const std::uint64_t gapOn = eraseGap(4);
    EXPECT_LT(gapOn, gapOff);
}

TEST(FtlEndurance, ResetClearsWearAndReplaysSchedule)
{
    PageMappedFtl f(makeGeometry(300, 0.1, 16));
    FtlEnduranceConfig cfg;
    cfg.grownBadProb = 0.05;
    cfg.rngSeed = 99;
    f.configureEndurance(cfg);
    auto churn = [&f] {
        Pcg32 rng(4);
        for (int i = 0; i < 30000; i++)
            f.write(rng.nextBounded(300), static_cast<SimTime>(i));
        return f.stats().retiredBlocks;
    };
    const std::uint64_t first = churn();
    EXPECT_GT(first, 0u);
    f.reset();
    EXPECT_EQ(f.retiredBlocks(), 0u);
    EXPECT_EQ(f.maxEraseCount(), 0u);
    EXPECT_EQ(f.stats().retiredBlocks, 0u);
    // reset() reseeds the grown-bad RNG: the same workload replays the
    // same retirement schedule (run-restart determinism).
    EXPECT_EQ(churn(), first);
    EXPECT_EQ(f.checkInvariants(), "");
}

// ---------------------------------------------------------------------
// Randomized invariant property test
// ---------------------------------------------------------------------

class FtlPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FtlPropertyTest, RandomOpsPreserveInvariants)
{
    Pcg32 rng(GetParam());
    PageMappedFtl f(makeGeometry(400, 0.08, 16));
    std::set<PageId> live;
    for (int i = 0; i < 8000; i++) {
        const PageId p = rng.nextBounded(600); // sparse universe
        const double dice = rng.nextDouble();
        if (dice < 0.55) {
            if (live.count(p) != 0 || live.size() < 400) {
                f.write(p, static_cast<SimTime>(i));
                live.insert(p);
            }
        } else if (dice < 0.8) {
            EXPECT_EQ(f.read(p).mapped, live.count(p) != 0);
        } else {
            f.trim(p);
            live.erase(p);
        }
        if (i % 1000 == 0) {
            ASSERT_EQ(f.checkInvariants(), "") << "iteration " << i;
        }
    }
    EXPECT_EQ(f.mappedPages(), live.size());
    EXPECT_EQ(f.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// BlockDevice integration (detailed FTL mode)
// ---------------------------------------------------------------------

device::DeviceSpec
detailedSsd(std::uint64_t pages)
{
    device::DeviceSpec d = device::deviceM();
    d.capacityPages = pages;
    d.detailedFtl = true;
    d.ftlPagesPerBlock = 32;
    return d;
}

TEST(FtlDeviceIntegration, CoarseModeHasNoFtl)
{
    device::DeviceSpec d = device::deviceM();
    d.capacityPages = 1000;
    device::BlockDevice dev(d);
    EXPECT_EQ(dev.ftl(), nullptr);
}

TEST(FtlDeviceIntegration, DetailedModeAttachesFtl)
{
    device::BlockDevice dev(detailedSsd(1000));
    ASSERT_NE(dev.ftl(), nullptr);
    EXPECT_EQ(dev.ftl()->geometry().exportedPages, 1000u);
}

TEST(FtlDeviceIntegration, NvmDeviceIgnoresDetailedFlag)
{
    device::DeviceSpec d = device::deviceH();
    d.capacityPages = 1000;
    d.detailedFtl = true;
    device::BlockDevice dev(d);
    EXPECT_EQ(dev.ftl(), nullptr);
}

TEST(FtlDeviceIntegration, WritesFlowThroughFtl)
{
    device::BlockDevice dev(detailedSsd(1000));
    dev.access(0.0, OpType::Write, 10, 4);
    EXPECT_EQ(dev.ftl()->stats().hostWrites, 4u);
    EXPECT_TRUE(dev.ftl()->isMapped(10));
    EXPECT_TRUE(dev.ftl()->isMapped(13));
}

TEST(FtlDeviceIntegration, GcChurnChargesForegroundTime)
{
    device::BlockDevice dev(detailedSsd(500));
    Pcg32 rng(17);
    // Initial sequential fill: no GC, so a baseline write is cheap.
    SimTime t = 0.0;
    for (PageId p = 0; p < 500; p++) {
        auto a = dev.access(t, OpType::Write, p, 1);
        t = a.finishUs;
    }
    EXPECT_EQ(dev.counters().gcStalls, 0u);
    // Overwrite churn far past physical capacity: GC must run and some
    // writes must absorb relocation time.
    for (int i = 0; i < 20000; i++) {
        auto a = dev.access(t, OpType::Write, rng.nextBounded(500), 1);
        t = a.finishUs;
    }
    EXPECT_GT(dev.counters().gcStalls, 0u);
    EXPECT_GT(dev.ftl()->stats().writeAmplification(), 1.0);
    EXPECT_EQ(dev.ftl()->checkInvariants(), "");
}

TEST(FtlDeviceIntegration, TrimPageForwardsToFtl)
{
    device::BlockDevice dev(detailedSsd(100));
    dev.access(0.0, OpType::Write, 5, 1);
    EXPECT_TRUE(dev.ftl()->isMapped(5));
    dev.trimPage(5);
    EXPECT_FALSE(dev.ftl()->isMapped(5));
}

TEST(FtlDeviceIntegration, ResetClearsFtl)
{
    device::BlockDevice dev(detailedSsd(100));
    dev.access(0.0, OpType::Write, 5, 1);
    dev.reset();
    EXPECT_EQ(dev.ftl()->mappedPages(), 0u);
}

TEST(FtlDeviceIntegration, EnduranceSpecArmsFtl)
{
    device::DeviceSpec d = detailedSsd(500);
    d.ftlRatedPeCycles = 100;
    d.ftlWearLevelSpread = 8;
    EXPECT_TRUE(d.enduranceEnabled());
    device::BlockDevice dev(d, 1234);
    ASSERT_NE(dev.ftl(), nullptr);
    EXPECT_EQ(dev.ftl()->endurance().ratedPeCycles, 100u);
    EXPECT_EQ(dev.ftl()->endurance().wearLevelSpread, 8u);
    EXPECT_EQ(dev.ftl()->endurance().rngSeed, 1234u);
}

TEST(FtlDeviceIntegration, EnduranceOffByDefault)
{
    const device::DeviceSpec d = detailedSsd(500);
    EXPECT_FALSE(d.enduranceEnabled());
    device::BlockDevice dev(d);
    ASSERT_NE(dev.ftl(), nullptr);
    EXPECT_FALSE(dev.ftl()->endurance().enabled());
}

TEST(FtlDeviceIntegration, WearOutFailsDeviceAtSpareFloor)
{
    // Retirement shrinks over-provisioning until the spare floor is
    // breached; the device must then latch a permanent failure (wear-
    // out is escalated exactly like a hard fault) while the FTL itself
    // keeps its data intact.
    device::DeviceSpec d = detailedSsd(200);
    d.ftlGrownBadProb = 1.0;
    device::BlockDevice dev(d, 7);
    Pcg32 rng(3);
    SimTime t = 0.0;
    bool failed = false;
    for (int i = 0; i < 60000 && !failed; i++) {
        const auto a =
            dev.access(t, OpType::Write, rng.nextBounded(200), 1);
        t = a.finishUs;
        failed = dev.permanentlyFailed();
    }
    EXPECT_TRUE(failed);
    EXPECT_TRUE(dev.ftl()->spareFloorBreached());
    EXPECT_EQ(dev.healthAt(t), device::DeviceHealth::Failed);
    EXPECT_EQ(dev.ftl()->checkInvariants(), "");
}

TEST(FtlDeviceIntegration, RetiredBlocksDegradeHealth)
{
    // A device with retired blocks but an intact spare floor reads as
    // Degraded — visible to health probes before the hard failure. The
    // generous over-provisioning leaves slack above the floor, and the
    // low grown-bad rate keeps retirements from cascading into a
    // breach within a single GC pass.
    device::DeviceSpec d = detailedSsd(500);
    d.ftlOverprovision = 0.4;
    d.ftlGrownBadProb = 0.02;
    device::BlockDevice dev(d, 11);
    Pcg32 rng(13);
    SimTime t = 0.0;
    while (dev.ftl()->retiredBlocks() == 0 && !dev.permanentlyFailed()) {
        const auto a =
            dev.access(t, OpType::Write, rng.nextBounded(500), 1);
        t = a.finishUs;
    }
    ASSERT_FALSE(dev.permanentlyFailed());
    EXPECT_EQ(dev.healthAt(t), device::DeviceHealth::Degraded);
}

TEST(FtlDeviceIntegration, WearFeaturesStrippedFromPolicyIdentity)
{
    // wearFeatures is an observation knob, stripped from the canonical
    // run string like the guardrail knobs — an armed run
    // shares the unarmed run's key (and hence its RNG streams), so the
    // feature's effect is isolated to agent decisions.
    EXPECT_EQ(sim::policyIdentity("Sibyl{wearFeatures=1}"), "Sibyl");
    EXPECT_EQ(sim::policyIdentity("Sibyl{gamma=0.5,wearFeatures=1}"),
              "Sibyl{gamma=0.5}");
}

// ---------------------------------------------------------------------
// Block-level unit behaviour
// ---------------------------------------------------------------------

TEST(FlashBlock, ProgramAdvancesWritePointer)
{
    FlashBlock b(4);
    EXPECT_EQ(b.program(10, 1.0), 0u);
    EXPECT_EQ(b.program(11, 2.0), 1u);
    EXPECT_EQ(b.writePtr(), 2u);
    EXPECT_EQ(b.validCount(), 2u);
    EXPECT_FALSE(b.full());
}

TEST(FlashBlock, FullAfterAllPagesProgrammed)
{
    FlashBlock b(2);
    b.program(1, 0.0);
    b.program(2, 0.0);
    EXPECT_TRUE(b.full());
}

TEST(FlashBlock, InvalidateIsIdempotent)
{
    FlashBlock b(4);
    b.program(7, 0.0);
    b.invalidate(0);
    b.invalidate(0);
    EXPECT_EQ(b.validCount(), 0u);
    EXPECT_EQ(b.owner(0), kInvalidPage);
}

TEST(FlashBlock, EraseBumpsWearAndClears)
{
    FlashBlock b(4);
    b.program(1, 0.0);
    b.program(2, 0.0);
    b.erase();
    EXPECT_EQ(b.eraseCount(), 1u);
    EXPECT_EQ(b.validCount(), 0u);
    EXPECT_EQ(b.writePtr(), 0u);
    EXPECT_EQ(b.state(), BlockState::Free);
}

} // namespace
} // namespace sibyl::ftl
