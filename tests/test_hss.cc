/**
 * @file
 * Tests for the storage management layer: mapping metadata, LRU
 * recency, and the hybrid system's serve/migrate/evict machinery,
 * including the occupancy == residency invariant under random load.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hss/hybrid_system.hh"
#include "hss/metadata.hh"

#include <cmath>
#include <list>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sibyl::hss
{
namespace
{

std::vector<device::DeviceSpec>
tinyConfig(std::uint64_t fastPages = 8, std::uint64_t slowPages = 1024)
{
    auto h = device::deviceH();
    h.capacityPages = fastPages;
    auto m = device::deviceM();
    m.capacityPages = slowPages;
    return {h, m};
}

trace::Request
req(PageId page, std::uint32_t size, OpType op, SimTime ts = 0.0)
{
    return {ts, page, size, op};
}

// --------------------------- PageMetaTable ---------------------------

TEST(PageMetaTable, AccessCountAndInterval)
{
    PageMetaTable meta(2);
    EXPECT_EQ(meta.accessCount(5), 0u);
    meta.recordAccess(5);
    meta.recordAccess(6);
    meta.recordAccess(5);
    EXPECT_EQ(meta.accessCount(5), 2u);
    // 5 last touched at tick 3; current tick 3 -> interval 0.
    EXPECT_EQ(meta.accessInterval(5), 0u);
    meta.recordAccess(7);
    meta.recordAccess(8);
    EXPECT_EQ(meta.accessInterval(5), 2u);
    // Unknown page: interval == current tick (i.e., "forever ago").
    EXPECT_EQ(meta.accessInterval(99), meta.tick());
}

TEST(PageMetaTable, LruOrdering)
{
    PageMetaTable meta(2);
    for (PageId p : {1, 2, 3}) {
        meta.map(p, 0);
        meta.recordAccess(p);
    }
    EXPECT_EQ(meta.lruVictim(0), 1u);
    meta.recordAccess(1); // 1 becomes MRU
    EXPECT_EQ(meta.lruVictim(0), 2u);
    EXPECT_EQ(meta.pagesOn(0), 3u);
    EXPECT_EQ(meta.lruVictim(1), kInvalidPage);
}

TEST(PageMetaTable, RemapMovesBetweenLists)
{
    PageMetaTable meta(2);
    meta.map(1, 0);
    meta.remap(1, 1);
    EXPECT_EQ(meta.placement(1), 1u);
    EXPECT_EQ(meta.pagesOn(0), 0u);
    EXPECT_EQ(meta.pagesOn(1), 1u);
}

TEST(PageMetaTableDeath, DoubleMapPanics)
{
    PageMetaTable meta(2);
    meta.map(1, 0);
    EXPECT_DEATH(meta.map(1, 1), "already mapped");
}

TEST(PageMetaTableDeath, RemapUnmappedPanics)
{
    PageMetaTable meta(2);
    EXPECT_DEATH(meta.remap(1, 1), "not mapped");
}

// --------------------------- HybridSystem ----------------------------

TEST(HybridSystem, WritePlacesOnActionDevice)
{
    HybridSystem sys(tinyConfig());
    auto r = sys.serve(0.0, req(10, 2, OpType::Write), 0);
    EXPECT_EQ(sys.placement(10), 0u);
    EXPECT_EQ(sys.placement(11), 0u);
    EXPECT_EQ(r.servedDevice, 0u);
    EXPECT_GT(r.latencyUs, 0.0);
    EXPECT_EQ(sys.device(0).usedPages(), 2u);
}

TEST(HybridSystem, FirstTouchReadMaterializesOnAction)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(20, 1, OpType::Read), 1);
    EXPECT_EQ(sys.placement(20), 1u);
    sys.serve(0.0, req(30, 1, OpType::Read), 0);
    EXPECT_EQ(sys.placement(30), 0u);
}

TEST(HybridSystem, ReadPromotesWhenActionFaster)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 1); // on slow
    auto r = sys.serve(100.0, req(5, 1, OpType::Read), 0);
    EXPECT_TRUE(r.migrated);
    EXPECT_EQ(sys.placement(5), 0u);
    EXPECT_EQ(sys.counters().promotions, 1u);
    // The read itself was served from the slow device.
    EXPECT_EQ(r.servedDevice, 1u);
}

TEST(HybridSystem, ReadNeverDemotes)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 0); // on fast
    auto r = sys.serve(100.0, req(5, 1, OpType::Read), 1);
    EXPECT_FALSE(r.migrated);
    EXPECT_EQ(sys.placement(5), 0u); // stays put
}

TEST(HybridSystem, WriteDemotesWhenActionSlower)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(5, 1, OpType::Write), 0);
    sys.serve(100.0, req(5, 1, OpType::Write), 1);
    EXPECT_EQ(sys.placement(5), 1u);
    EXPECT_EQ(sys.counters().demotions, 1u);
    EXPECT_EQ(sys.device(0).usedPages(), 0u);
}

TEST(HybridSystem, EvictionWhenFastFull)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/4));
    // Fill the 4-page fast device.
    sys.serve(0.0, req(0, 4, OpType::Write), 0);
    // One more fast write must evict.
    auto r = sys.serve(100.0, req(100, 2, OpType::Write), 0);
    EXPECT_TRUE(r.eviction);
    EXPECT_EQ(r.evictedPages, 2u);
    EXPECT_GT(r.evictionTimeUs, 0.0);
    EXPECT_LE(sys.device(0).usedPages(), 4u);
    // Evicted pages landed on the slow device.
    EXPECT_EQ(sys.metadata().pagesOn(1), 2u);
    EXPECT_EQ(sys.counters().evictionEvents, 1u);
}

TEST(HybridSystem, LruVictimSelectedByDefault)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/2));
    sys.serve(0.0, req(1, 1, OpType::Write), 0);
    sys.serve(1.0, req(2, 1, OpType::Write), 0);
    sys.serve(2.0, req(1, 1, OpType::Read), 0); // 1 becomes MRU
    sys.serve(3.0, req(9, 1, OpType::Write), 0);
    EXPECT_EQ(sys.placement(2), 1u); // LRU page 2 evicted
    EXPECT_EQ(sys.placement(1), 0u);
}

TEST(HybridSystem, CustomVictimPickerUsed)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/2));
    sys.serve(0.0, req(1, 1, OpType::Write), 0);
    sys.serve(1.0, req(2, 1, OpType::Write), 0);
    // Always evict page 2's *opposite* of LRU: pick the MRU page 2...
    sys.setVictimPicker([](DeviceId) { return PageId{2}; });
    sys.serve(2.0, req(1, 1, OpType::Read), 0); // 1 MRU, 2 LRU anyway
    sys.serve(3.0, req(9, 1, OpType::Write), 0);
    EXPECT_EQ(sys.placement(2), 1u);
    // Picker returning an invalid page falls back to LRU.
    sys.setVictimPicker([](DeviceId) { return kInvalidPage; });
    sys.serve(4.0, req(10, 1, OpType::Write), 0);
    EXPECT_LE(sys.device(0).usedPages(), 2u);
}

TEST(HybridSystem, OversizedRequestOverflowsToSlow)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/4));
    // A 6-page request cannot fit on the 4-page fast device at all.
    auto r = sys.serve(0.0, req(0, 6, OpType::Write), 0);
    EXPECT_EQ(r.servedDevice, 1u);
    EXPECT_EQ(sys.placement(0), 1u);
}

TEST(HybridSystem, RequestLargerThanRemainingCapacityEvicts)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/8));
    sys.serve(0.0, req(0, 6, OpType::Write), 0);
    auto r = sys.serve(1.0, req(100, 4, OpType::Write), 0);
    EXPECT_TRUE(r.eviction);
    EXPECT_LE(sys.device(0).usedPages(), 8u);
}

TEST(HybridSystem, TriHybridCascadeEviction)
{
    auto h = device::deviceH();
    h.capacityPages = 2;
    auto m = device::deviceM();
    m.capacityPages = 2;
    auto l = device::deviceL();
    l.capacityPages = 1024;
    HybridSystem sys({h, m, l});
    // Fill H, then M via evictions from H, then force a cascade.
    for (PageId p = 0; p < 6; p++)
        sys.serve(static_cast<double>(p), req(100 + p, 1, OpType::Write),
                  0);
    EXPECT_LE(sys.device(0).usedPages(), 2u);
    EXPECT_LE(sys.device(1).usedPages(), 2u);
    EXPECT_GE(sys.device(2).usedPages(), 2u);
}

TEST(HybridSystem, MakeConfigShapes)
{
    auto dual = makeHssConfig("H&M", 10000);
    ASSERT_EQ(dual.size(), 2u);
    EXPECT_EQ(dual[0].capacityPages, 1000u); // 10%
    EXPECT_GT(dual[1].capacityPages, 10000u);

    auto tri = makeHssConfig("H&M&L", 10000, 0.05);
    ASSERT_EQ(tri.size(), 3u);
    EXPECT_EQ(tri[0].capacityPages, 500u);   // 5%
    EXPECT_EQ(tri[1].capacityPages, 1000u);  // 10%
    EXPECT_EQ(tri[2].name, "L");

    auto triSsd = makeHssConfig("H&M&L_SSD", 10000);
    EXPECT_EQ(triSsd[2].name, "L_SSD");
}

/**
 * Invariant property: after any random request sequence, every device's
 * occupancy equals the number of pages mapped to it, and fast occupancy
 * never exceeds capacity.
 */
TEST(HybridSystem, OccupancyMatchesResidencyUnderRandomLoad)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/16, /*slowPages=*/4096));
    Pcg32 rng(123);
    SimTime now = 0.0;
    for (int i = 0; i < 3000; i++) {
        PageId page = rng.nextBounded(300);
        auto size = static_cast<std::uint32_t>(1 + rng.nextBounded(8));
        OpType op = rng.nextBool(0.5) ? OpType::Read : OpType::Write;
        DeviceId action = rng.nextBounded(2);
        now += rng.nextDouble(0.0, 50.0);
        sys.serve(now, {now, page, size, op}, action);

        ASSERT_EQ(sys.device(0).usedPages(), sys.metadata().pagesOn(0));
        ASSERT_EQ(sys.device(1).usedPages(), sys.metadata().pagesOn(1));
        ASSERT_LE(sys.device(0).usedPages(),
                  sys.device(0).spec().capacityPages);
    }
    EXPECT_GT(sys.counters().evictedPages, 0u);
}

TEST(HybridSystem, ResetRestoresPristine)
{
    HybridSystem sys(tinyConfig());
    sys.serve(0.0, req(1, 1, OpType::Write), 0);
    sys.reset();
    EXPECT_EQ(sys.counters().requests, 0u);
    EXPECT_EQ(sys.device(0).usedPages(), 0u);
    EXPECT_EQ(sys.placement(1), kNoDevice);
}

TEST(HybridSystem, FreeFractionTracksOccupancy)
{
    HybridSystem sys(tinyConfig(/*fastPages=*/10));
    EXPECT_DOUBLE_EQ(sys.freeFraction(0), 1.0);
    sys.serve(0.0, req(0, 5, OpType::Write), 0);
    EXPECT_DOUBLE_EQ(sys.freeFraction(0), 0.5);
}

// ------------------- Flat vs legacy metadata table -------------------

/**
 * The original unordered_map + per-device std::list metadata table,
 * kept here as the reference the flat table is checked against. Same
 * interface and semantics: the tick advances once per page access, an
 * access refreshes the page's recency, and each device's list runs
 * MRU (front) to LRU (back).
 */
class LegacyPageMetaTable
{
  public:
    explicit LegacyPageMetaTable(std::uint32_t numDevices)
        : lru_(numDevices)
    {
    }

    DeviceId placement(PageId page) const
    {
        auto it = meta_.find(page);
        return it == meta_.end() ? kNoDevice : it->second.placement;
    }

    std::uint64_t accessCount(PageId page) const
    {
        auto it = meta_.find(page);
        return it == meta_.end() ? 0 : it->second.accessCount;
    }

    std::uint64_t accessInterval(PageId page) const
    {
        auto it = meta_.find(page);
        if (it == meta_.end() || it->second.accessCount == 0)
            return tick_;
        return tick_ - it->second.lastAccessTick;
    }

    void recordAccess(PageId page)
    {
        tick_++;
        auto &m = meta_[page];
        m.accessCount++;
        m.lastAccessTick = tick_;
        if (m.placement != kNoDevice)
            moveToFront(m, m.placement);
    }

    void map(PageId page, DeviceId dev)
    {
        auto &m = meta_[page];
        ASSERT_EQ(m.placement, kNoDevice) << "page already mapped";
        m.placement = dev;
        lru_[dev].push_front(page);
        m.lruIt = lru_[dev].begin();
    }

    void remap(PageId page, DeviceId dev)
    {
        auto &m = meta_.at(page);
        ASSERT_NE(m.placement, kNoDevice) << "page not mapped";
        moveToFront(m, dev);
    }

    PageId lruVictim(DeviceId dev) const
    {
        return lru_[dev].empty() ? kInvalidPage : lru_[dev].back();
    }

    std::uint64_t pagesOn(DeviceId dev) const { return lru_[dev].size(); }

    std::vector<PageId> residency(DeviceId dev) const
    {
        return {lru_[dev].rbegin(), lru_[dev].rend()};
    }

    std::uint64_t tick() const { return tick_; }
    std::uint64_t mappedPages() const { return meta_.size(); }

  private:
    struct PageMeta
    {
        DeviceId placement = kNoDevice;
        std::uint64_t accessCount = 0;
        std::uint64_t lastAccessTick = 0;
        std::list<PageId>::iterator lruIt;
    };

    /** Unlink @p m from its device's list and push it at @p dev's MRU
     *  end (an access refresh when @p dev is the same device). */
    void moveToFront(PageMeta &m, DeviceId dev)
    {
        const PageId page = *m.lruIt;
        lru_[m.placement].erase(m.lruIt);
        m.placement = dev;
        lru_[dev].push_front(page);
        m.lruIt = lru_[dev].begin();
    }

    std::uint64_t tick_ = 0;
    std::unordered_map<PageId, PageMeta> meta_;
    std::vector<std::list<PageId>> lru_;
};

/**
 * Randomized differential test: the flat open-addressed table and the
 * legacy map+list oracle must agree on every observable — placement,
 * counters, intervals, per-device populations, and crucially the LRU
 * victim of both devices — after every operation of a mixed
 * map/access/migrate stream.
 */
TEST(FlatPageMetaTable, DifferentialAgainstLegacyOracle)
{
    // Tiny initial capacity so the stream crosses several rehashes
    // mid-run (growth must preserve chain order exactly).
    FlatPageMetaTable::Config cfg;
    cfg.initialCapacity = 16;
    FlatPageMetaTable flat(3, cfg);
    LegacyPageMetaTable legacy(3);
    Pcg32 rng(0xD1FF);

    for (int i = 0; i < 20000; i++) {
        const PageId page = rng.nextBounded(700);
        const auto op = rng.nextBounded(10);
        if (op < 6) {
            flat.recordAccess(page);
            legacy.recordAccess(page);
        } else if (op < 8) {
            if (legacy.placement(page) == kNoDevice) {
                const DeviceId dev = rng.nextBounded(3);
                flat.map(page, dev);
                legacy.map(page, dev);
            }
        } else {
            // Evict-style move: migrate the LRU victim of a random
            // device (the serve path's eviction pattern).
            const DeviceId dev = rng.nextBounded(3);
            const PageId victim = legacy.lruVictim(dev);
            ASSERT_EQ(flat.lruVictim(dev), victim);
            if (victim != kInvalidPage) {
                const DeviceId dst = (dev + 1) % 3;
                flat.remap(victim, dst);
                legacy.remap(victim, dst);
            }
        }

        ASSERT_EQ(flat.tick(), legacy.tick());
        ASSERT_EQ(flat.mappedPages(), legacy.mappedPages());
        ASSERT_EQ(flat.placement(page), legacy.placement(page));
        ASSERT_EQ(flat.accessCount(page), legacy.accessCount(page));
        ASSERT_EQ(flat.accessInterval(page), legacy.accessInterval(page));
        for (DeviceId d = 0; d < 3; d++) {
            ASSERT_EQ(flat.pagesOn(d), legacy.pagesOn(d));
            ASSERT_EQ(flat.lruVictim(d), legacy.lruVictim(d));
        }
    }
    // Full residency-order equality (cold-first) at the end.
    for (DeviceId d = 0; d < 3; d++)
        EXPECT_EQ(flat.residency(d), legacy.residency(d));
}

TEST(FlatPageMetaTable, GrowthPreservesStateAcrossRehash)
{
    FlatPageMetaTable::Config cfg;
    cfg.initialCapacity = 16;
    cfg.maxLoadFactor = 0.5;
    FlatPageMetaTable meta(2, cfg);
    const std::uint64_t startCap = meta.slotCapacity();

    // Map enough pages to force several doublings.
    for (PageId p = 0; p < 500; p++) {
        meta.map(p, static_cast<DeviceId>(p % 2));
        meta.recordAccess(p);
    }
    EXPECT_GT(meta.slotCapacity(), startCap);
    EXPECT_LE(meta.loadFactor(), 0.5);

    // Everything survived the rehashes: counters, placement, and the
    // exact LRU order (page 0 is coldest on device 0).
    EXPECT_EQ(meta.mappedPages(), 500u);
    for (PageId p = 0; p < 500; p++) {
        EXPECT_EQ(meta.placement(p), p % 2);
        EXPECT_EQ(meta.accessCount(p), 1u);
    }
    EXPECT_EQ(meta.lruVictim(0), 0u);
    EXPECT_EQ(meta.lruVictim(1), 1u);

    // reserve() is the explicit capacity knob.
    FlatPageMetaTable big(2);
    big.reserve(1 << 16);
    const std::uint64_t reserved = big.slotCapacity();
    for (PageId p = 0; p < (1 << 16); p++)
        big.recordAccess(p);
    EXPECT_EQ(big.slotCapacity(), reserved) << "reserve() must prevent "
                                               "mid-run rehashing";
}

TEST(FlatPageMetaTable, TickMonotonicityAndIntervalSemantics)
{
    FlatPageMetaTable meta(2);
    std::uint64_t lastTick = meta.tick();
    Pcg32 rng(0x71C);
    for (int i = 0; i < 1000; i++) {
        const PageId p = rng.nextBounded(50);
        meta.recordAccess(p);
        // The tick advances by exactly one per page access, never by
        // map/remap/queries.
        ASSERT_EQ(meta.tick(), lastTick + 1);
        lastTick = meta.tick();
        ASSERT_EQ(meta.accessInterval(p), 0u);
        if (meta.placement(p) == kNoDevice && (i & 3) == 0)
            meta.map(p, 0);
        ASSERT_EQ(meta.tick(), lastTick);
    }
    // Unseen pages read "forever ago" == current tick.
    EXPECT_EQ(meta.accessInterval(99999), meta.tick());
}

TEST(MakeHssConfig, RejectsUnknownShorthandListingValidNames)
{
    // The shorthand is user input (CLI --config, scenario files): a
    // typo must throw a catchable error that names every valid
    // configuration, not exit the process.
    try {
        makeHssConfig("H&X", 10000);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("H&X"), std::string::npos) << msg;
        for (const char *valid :
             {"H&M", "H&L", "H&M&L", "H&M&L_SSD", "H&M&L_SSD&L"})
            EXPECT_NE(msg.find(valid), std::string::npos)
                << msg << " should list " << valid;
    }
    EXPECT_THROW(makeHssConfig("", 10000), std::invalid_argument);
    EXPECT_THROW(makeHssConfig("h&m", 10000), std::invalid_argument);
}

TEST(MakeHssConfig, RejectsOutOfRangeFastCapacityFrac)
{
    // Casting a negative, non-finite or oversized page count to the
    // fast device's capacity is undefined: each must throw, naming the
    // field, for every shorthand.
    for (const char *cfg : {"H&M", "H&M&L", "H&M&L_SSD&L"}) {
        for (double frac :
             {-0.5, -1e-300, std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300,
              // fits 64 bits at a 64-page working set, not at 10,000
              1e16}) {
            SCOPED_TRACE(std::string(cfg) + " " + std::to_string(frac));
            try {
                makeHssConfig(cfg, 10000, frac);
                ADD_FAILURE() << "accepted";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("fastCapacityFrac"),
                          std::string::npos)
                    << e.what();
            }
        }
        // The edges of the valid range still build, and size as before.
        EXPECT_EQ(makeHssConfig(cfg, 10000, 0.0)[0].capacityPages, 16u);
        EXPECT_EQ(makeHssConfig(cfg, 10000, 1e15)[0].capacityPages,
                  10000000000000000000ull);
    }
}

} // namespace
} // namespace sibyl::hss
