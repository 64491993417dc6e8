/**
 * @file
 * Per-page metadata table of the storage management layer.
 *
 * Tracks, for every logical page: where it lives, how often it has been
 * accessed (cnt_t), and how long ago it was last accessed in units of
 * page accesses (intr_t) — the two reuse features of Sibyl's state
 * vector (Table 1) — plus an LRU ordering per device used for default
 * eviction-victim selection.
 *
 * Two implementations share one interface:
 *
 *  - FlatPageMetaTable (the default): a single open-addressed slot
 *    array. Each slot embeds the page's counters *and* its LRU links as
 *    `uint32_t` slot indices, so one probe answers every per-request
 *    metadata query with at most one cache miss, and an LRU refresh is
 *    three index stores instead of a list-node splice. Pages are never
 *    erased individually (only remapped or bulk reset), so the probe
 *    sequences need no tombstones.
 *  - LegacyPageMetaTable: the original unordered_map + per-device
 *    std::list structure, kept only as the reference for the
 *    differential test and the metadata microbenchmark; the simulator
 *    always uses FlatPageMetaTable.
 *
 * Both preserve identical observable behaviour — eviction (LRU) order,
 * tick semantics, counters — which tests/test_hss.cc enforces with a
 * randomized differential stream.
 */

#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace sibyl::hss
{

/** Metadata kept for each mapped logical page (legacy table). */
struct PageMeta
{
    DeviceId placement = kNoDevice;
    std::uint64_t accessCount = 0;
    std::uint64_t lastAccessTick = 0;
    /** Position in the owning device's LRU list. */
    std::list<PageId>::iterator lruIt;
};

/**
 * Mapping table plus recency bookkeeping (legacy implementation).
 *
 * The global tick increments once per *page access*; the paper defines
 * the access interval of a page as the number of page accesses between
 * two consecutive references to it.
 */
class LegacyPageMetaTable
{
  public:
    explicit LegacyPageMetaTable(std::uint32_t numDevices);

    /** True if the page has ever been mapped. */
    bool isMapped(PageId page) const;

    /** Device the page lives on, or kNoDevice. */
    DeviceId placement(PageId page) const;

    /** Total accesses to the page so far (0 if unseen). */
    std::uint64_t accessCount(PageId page) const;

    /**
     * Page accesses since this page was last referenced; returns the
     * current tick for pages never seen (i.e., "infinite" interval).
     */
    std::uint64_t accessInterval(PageId page) const;

    /** Record one access to @p page (bumps count, tick, and recency). */
    void recordAccess(PageId page);

    /** Map an unmapped page onto @p dev. */
    void map(PageId page, DeviceId dev);

    /** Move a mapped page to @p dev (migration). */
    void remap(PageId page, DeviceId dev);

    /** Least-recently-used page on @p dev, or kInvalidPage if empty. */
    PageId lruVictim(DeviceId dev) const;

    /** Number of pages mapped to @p dev. */
    std::uint64_t pagesOn(DeviceId dev) const;

    /** Pages currently resident on @p dev, LRU order (cold first). */
    std::vector<PageId> residency(DeviceId dev) const;

    std::uint64_t tick() const { return tick_; }
    std::uint64_t mappedPages() const { return meta_.size(); }

    void reset();

  private:
    std::uint32_t numDevices_;
    std::uint64_t tick_ = 0;
    std::unordered_map<PageId, PageMeta> meta_;
    /** Per-device recency lists: front = MRU, back = LRU. */
    std::vector<std::list<PageId>> lru_;
};

/**
 * Flat open-addressed mapping table with an intrusive, index-linked
 * LRU per device (see file header). Same observable semantics as
 * LegacyPageMetaTable; this is the request-path default.
 */
class FlatPageMetaTable
{
  public:
    /** Capacity/rehash knobs. */
    struct Config
    {
        /** Initial slot count (rounded up to a power of two). The
         *  default comfortably holds the scaled-down traces this
         *  repository replays without rehashing mid-run. */
        std::uint64_t initialCapacity = 1 << 13;

        /** Occupancy fraction that triggers doubling. Probe clusters
         *  stay short below ~0.7 for linear probing. */
        double maxLoadFactor = 0.60;
    };

    explicit FlatPageMetaTable(std::uint32_t numDevices);
    FlatPageMetaTable(std::uint32_t numDevices, const Config &cfg);

    bool isMapped(PageId page) const;
    DeviceId placement(PageId page) const;
    std::uint64_t accessCount(PageId page) const;
    std::uint64_t accessInterval(PageId page) const;
    void recordAccess(PageId page);
    void map(PageId page, DeviceId dev);
    void remap(PageId page, DeviceId dev);
    PageId lruVictim(DeviceId dev) const;
    std::uint64_t pagesOn(DeviceId dev) const;

    /** Pages currently resident on @p dev, LRU order (cold first).
     *  Materialized by walking the chain — diagnostics/tests only. */
    std::vector<PageId> residency(DeviceId dev) const;

    std::uint64_t tick() const { return tick_; }
    std::uint64_t mappedPages() const { return size_; }

    /** Grow the slot array (once) so @p pages entries fit without a
     *  mid-run rehash. */
    void reserve(std::uint64_t pages);

    /** Current slot-array size (capacity knob introspection). */
    std::uint64_t slotCapacity() const { return slots_.size(); }

    /** Occupied slots / slot capacity. */
    double loadFactor() const
    {
        return slots_.empty()
            ? 0.0
            : static_cast<double>(size_) /
                  static_cast<double>(slots_.size());
    }

    void reset();

  private:
    /** Sentinel slot index terminating LRU chains. */
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    struct Slot
    {
        PageId page = kInvalidPage; ///< kInvalidPage marks an empty slot
        std::uint64_t accessCount = 0;
        std::uint64_t lastAccessTick = 0;
        std::uint32_t lruPrev = kNil; ///< toward MRU
        std::uint32_t lruNext = kNil; ///< toward LRU
        DeviceId placement = kNoDevice;
    };

    static std::uint64_t hashPage(PageId page);

    /** Probe for @p page; returns its slot index or kNil. */
    std::uint32_t find(PageId page) const;

    /** Probe for @p page, claiming (and growing, if needed) an empty
     *  slot when absent. */
    std::uint32_t findOrCreate(PageId page);

    void grow(std::uint64_t minSlots);

    /** Unlink slot @p idx from its device's LRU chain. */
    void unlink(std::uint32_t idx);

    /** Link slot @p idx at the MRU end of @p dev's chain. */
    void pushFront(std::uint32_t idx, DeviceId dev);

    std::uint32_t numDevices_;
    double maxLoad_;
    std::uint64_t tick_ = 0;
    std::uint64_t size_ = 0;    ///< occupied slots (pages ever seen)
    std::uint64_t mask_ = 0;    ///< slots_.size() - 1 (power of two)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> heads_;  ///< per-device MRU slot index
    std::vector<std::uint32_t> tails_;  ///< per-device LRU slot index
    std::vector<std::uint64_t> counts_; ///< per-device resident pages
};

using PageMetaTable = FlatPageMetaTable;

/** Feature probe for sources built against both pre- and post-flat
 *  versions of this header (bench/perf_request.cc measures its own
 *  baseline by compiling against the parent commit's library). */
#define SIBYL_HAS_FLAT_METADATA 1

} // namespace sibyl::hss
