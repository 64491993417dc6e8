/**
 * @file
 * Tests for the trace containers, statistics, and file I/O.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "trace/workloads.hh"

namespace sibyl::trace
{
namespace
{

Trace
tinyTrace()
{
    Trace t("tiny");
    t.add({0.0, 10, 2, OpType::Read});    // pages 10,11
    t.add({100.0, 10, 1, OpType::Write}); // page 10 again
    t.add({200.0, 20, 4, OpType::Read});  // pages 20..23
    return t;
}

/** Distinct pages by brute force: every page of every span into a
 *  hash set (a span whose end wraps past 2^64 covers nothing). */
std::uint64_t
referenceUniquePages(const Trace &t)
{
    std::unordered_set<PageId> pages;
    for (const auto &r : t)
        for (PageId p = r.page; p < r.endPage(); p++)
            pages.insert(p);
    return pages.size();
}

TEST(Trace, UniquePagesCountsSpans)
{
    Trace t = tinyTrace();
    EXPECT_EQ(t.uniquePages(), 6u); // 10,11,20,21,22,23
    EXPECT_EQ(t.workingSetBytes(), 6u * kPageSize);
    EXPECT_EQ(t.addressSpacePages(), 24u);

    // Every synthetic profile, at two seeds.
    std::vector<WorkloadProfile> profiles = msrcProfiles();
    profiles.insert(profiles.end(), filebenchProfiles().begin(),
                    filebenchProfiles().end());
    for (const WorkloadProfile &prof : profiles)
        for (std::uint64_t seed : {1u, 2u}) {
            const Trace w = makeWorkload(prof, 4000, seed);
            EXPECT_EQ(w.uniquePages(), referenceUniquePages(w))
                << prof.name << " seed " << seed;
        }

    // Sparse ids at and above 2^40, as MSRC byte offsets / 4096 give.
    constexpr PageId kChunk = PageId{1} << 15; // one bitmap block
    Trace sparse("sparse");
    for (PageId base : {PageId{1} << 40, (PageId{1} << 40) + 3 * kChunk,
                        PageId{1} << 52, (PageId{1} << 63) + 7})
        for (std::uint32_t k = 0; k < 5; k++)
            sparse.add({0.0, base + 97 * k, 1 + 9 * k, OpType::Read});
    sparse.add({0.0, ~PageId{0} - 4, 4, OpType::Write}); // ends at 2^64 - 1
    EXPECT_EQ(sparse.uniquePages(), referenceUniquePages(sparse));

    // Spans crossing chunk boundaries, one of them several chunks long,
    // then repeated and overlapping spans.
    Trace cross("cross");
    cross.add({0.0, kChunk - 3, 7, OpType::Read});
    cross.add({0.0, 5 * kChunk - 70,
               static_cast<std::uint32_t>(2 * kChunk + 140), OpType::Write});
    cross.add({0.0, (PageId{1} << 40) - 1, 2, OpType::Read});
    for (int rep = 0; rep < 3; rep++) {
        cross.add({0.0, kChunk - 3, 7, OpType::Read});
        cross.add({0.0, 9 * kChunk + 11, 200, OpType::Read});
        cross.add({0.0, 9 * kChunk + 100, 64, OpType::Write});
    }
    EXPECT_EQ(cross.uniquePages(), referenceUniquePages(cross));
    EXPECT_EQ(cross.uniquePages(), 7u + 2 * kChunk + 140 + 2 + 200);

    EXPECT_EQ(Trace("empty").uniquePages(), 0u);

    // A request whose page + sizePages wraps past 2^64 counts no page.
    Trace wrap("wrap");
    wrap.add({0.0, ~PageId{0} - 1, 5, OpType::Read});
    wrap.add({0.0, ~PageId{0}, 1, OpType::Read});
    EXPECT_EQ(wrap.uniquePages(), referenceUniquePages(wrap));
    EXPECT_EQ(wrap.uniquePages(), 0u);
    wrap.add({0.0, 42, 3, OpType::Read});
    EXPECT_EQ(wrap.uniquePages(), 3u);
}

TEST(Trace, PrefixTruncates)
{
    Trace t = tinyTrace();
    Trace p = t.prefix(2);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p[1].page, 10u);
    EXPECT_EQ(t.prefix(99).size(), 3u);
}

TEST(Trace, MergeShiftsAndSorts)
{
    Trace a = tinyTrace();
    Trace b("other");
    b.add({50.0, 100, 1, OpType::Read});
    a.merge(b, 100.0); // lands at t=150
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0].timestamp, 0.0);
    EXPECT_EQ(a[2].timestamp, 150.0);
    EXPECT_EQ(a[2].page, 100u);
}

TEST(TraceStats, ComputesTable4Columns)
{
    Trace t = tinyTrace();
    auto s = TraceStats::compute(t);
    EXPECT_EQ(s.requests, 3u);
    EXPECT_NEAR(s.writePct, 100.0 / 3.0, 1e-9);
    EXPECT_NEAR(s.readPct, 200.0 / 3.0, 1e-9);
    // (2+1+4)/3 pages * 4 KiB
    EXPECT_NEAR(s.avgRequestSizeKiB, 7.0 / 3.0 * 4.0, 1e-9);
    EXPECT_EQ(s.uniquePages, 6u);
    EXPECT_NEAR(s.avgAccessCount, 7.0 / 6.0, 1e-9);
}

TEST(TraceStats, EmptyTrace)
{
    auto s = TraceStats::compute(Trace("empty"));
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.uniquePages, 0u);
}

TEST(TraceStats, TimelineDownsamples)
{
    Trace t("big");
    for (int i = 0; i < 1000; i++)
        t.add({i * 10.0, static_cast<PageId>(i), 1, OpType::Read});
    auto tl = sampleTimeline(t, 100);
    EXPECT_LE(tl.size(), 101u);
    EXPECT_GE(tl.size(), 90u);
    EXPECT_EQ(tl[0].page, 0u);
}

TEST(TraceIo, NativeRoundTrip)
{
    Trace t = tinyTrace();
    std::stringstream ss;
    writeNativeCsv(ss, t);
    Trace back = readNativeCsv(ss, "tiny");
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); i++) {
        EXPECT_EQ(back[i].page, t[i].page);
        EXPECT_EQ(back[i].sizePages, t[i].sizePages);
        EXPECT_EQ(back[i].op, t[i].op);
        EXPECT_DOUBLE_EQ(back[i].timestamp, t[i].timestamp);
    }
}

TEST(TraceIo, ParsesMsrcFormat)
{
    // Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
    std::stringstream ss;
    ss << "128166372003061629,hm,0,Read,8192,8192,100\n"
       << "128166372013061629,hm,0,Write,4096,4096,200\n";
    Trace t = readMsrcCsv(ss, "hm_0");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].page, 2u); // 8192/4096
    EXPECT_EQ(t[0].sizePages, 2u);
    EXPECT_EQ(t[0].op, OpType::Read);
    EXPECT_EQ(t[1].op, OpType::Write);
    // 100 ns ticks -> us; second row is 1e7 ticks = 1e6 us later.
    EXPECT_NEAR(t[1].timestamp - t[0].timestamp, 1e6, 1.0);
}

TEST(TraceIo, SkipsMalformedRows)
{
    std::stringstream ss;
    ss << "garbage line\n"
       << "128166372003061629,hm,0,Read,8192,8192,100\n"
       << "not,enough\n";
    Trace t = readMsrcCsv(ss, "x");
    EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(readMsrcCsvFile("/nonexistent/path.csv"),
                 std::runtime_error);
}

TEST(TraceIo, SubPageRequestRoundsUp)
{
    std::stringstream ss;
    ss << "1,h,0,Read,100,512,0\n"; // 512 B at offset 100
    Trace t = readMsrcCsv(ss, "x");
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].page, 0u);
    EXPECT_EQ(t[0].sizePages, 1u);
}


TEST(TraceIo, RandomizedSyntheticRoundTripIsLossless)
{
    // Property test: write -> read of the native format reproduces a
    // randomized synthetic trace exactly, including full-precision
    // timestamps (the writer emits %.17g so doubles survive).
    Pcg32 rng(0x70CA);
    for (int iter = 0; iter < 5; iter++) {
        SyntheticConfig cfg;
        cfg.name = "rt_" + std::to_string(iter);
        cfg.numRequests = 500 + rng.nextBounded(1500);
        cfg.writeFrac = rng.nextDouble(0.0, 1.0);
        cfg.avgRequestSizePages = 1.0 + rng.nextDouble(0.0, 8.0);
        cfg.zipfTheta = rng.nextDouble(0.1, 0.99);
        cfg.seqFraction = rng.nextDouble(0.0, 0.6);
        cfg.seed = 0x5EED + iter;
        Trace t = generateSynthetic(cfg);

        std::stringstream ss;
        writeNativeCsv(ss, t);
        Trace back = readNativeCsv(ss, cfg.name);

        ASSERT_EQ(back.size(), t.size()) << cfg.name;
        for (std::size_t i = 0; i < t.size(); i++) {
            ASSERT_EQ(back[i].page, t[i].page) << i;
            ASSERT_EQ(back[i].sizePages, t[i].sizePages) << i;
            ASSERT_EQ(back[i].op, t[i].op) << i;
            // Bit-exact, not approximate: the round-tripped trace must
            // drive simulations identically.
            ASSERT_EQ(back[i].timestamp, t[i].timestamp) << i;
        }
    }
}

TEST(TraceIo, RoundTrippedTraceDrivesIdenticalSimulation)
{
    // End-to-end guarantee behind the determinism suite: replaying a
    // round-tripped trace yields the same per-request metrics
    // (recordPerRequest path) as the original, bit for bit.
    Trace t = makeWorkload("usr_0", 1200);
    std::stringstream ss;
    writeNativeCsv(ss, t);
    Trace back = readNativeCsv(ss, "usr_0");
    ASSERT_EQ(back.size(), t.size());

    auto runRecorded = [](const Trace &tr) {
        auto specs = hss::makeHssConfig("H&M", tr.uniquePages(), 0.10);
        hss::HybridSystem sys(specs, 42);
        auto policy = sim::makePolicy("CDE", 2);
        sim::SimConfig cfg;
        cfg.recordPerRequest = true;
        return sim::runSimulation(tr, sys, *policy, cfg);
    };
    const auto a = runRecorded(t);
    const auto b = runRecorded(back);

    EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.iops, b.iops);
    ASSERT_EQ(a.perRequestLatencyUs.size(), b.perRequestLatencyUs.size());
    for (std::size_t i = 0; i < a.perRequestLatencyUs.size(); i++) {
        ASSERT_EQ(a.perRequestArrivalUs[i], b.perRequestArrivalUs[i]);
        ASSERT_EQ(a.perRequestLatencyUs[i], b.perRequestLatencyUs[i]);
        ASSERT_EQ(a.perRequestFinishUs[i], b.perRequestFinishUs[i]);
        ASSERT_EQ(a.perRequestAction[i], b.perRequestAction[i]);
    }
}

TEST(Trace, CompressTimeDividesTimestamps)
{
    Trace t("x");
    Request r;
    r.timestamp = 100.0;
    t.add(r);
    r.timestamp = 300.0;
    t.add(r);
    t.compressTime(10.0);
    EXPECT_DOUBLE_EQ(t[0].timestamp, 10.0);
    EXPECT_DOUBLE_EQ(t[1].timestamp, 30.0);
    t.compressTime(0.0); // no-op guard
    EXPECT_DOUBLE_EQ(t[1].timestamp, 30.0);
}

} // namespace
} // namespace sibyl::trace
