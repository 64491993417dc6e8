/**
 * @file
 * Page-mapped flash translation layer.
 *
 * Implements the mechanism behind the flash-device behaviour the paper's
 * reward signal observes: out-of-place writes into erase blocks, a
 * logical-to-physical map, over-provisioned spare space, and relocation
 * garbage collection whose copy traffic is the source of write
 * amplification and foreground stalls. The FTL is usable standalone
 * (tests, FTL demo example) and optionally drives the FlashSsd timing
 * model in BlockDevice, replacing its probabilistic GC-stall
 * approximation with the real mechanism. It also supplies the per-block
 * wear statistics used by the endurance-aware reward extension (§11).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "ftl/flash_block.hh"
#include "ftl/flash_geometry.hh"
#include "ftl/gc_policy.hh"

namespace sibyl::ftl
{

/**
 * Endurance model knobs. All off by default: a default-constructed
 * config is a strict no-op (no RNG draws, no retirement, no wear
 * leveling), which is what keeps wear-free runs byte-identical to the
 * pre-endurance code.
 */
struct FtlEnduranceConfig
{
    /** Rated program/erase cycles per block; a block erased this many
     *  times is retired from the free pool. 0 = no rated-wear
     *  retirement. */
    std::uint64_t ratedPeCycles = 0;

    /** Per-erase probability that a block grows a bad cell and is
     *  retired early, drawn from a seeded private RNG. 0 = off. */
    double grownBadProb = 0.0;

    /** Seed for the grown-bad RNG. Callers must derive this from the
     *  run key so retirement schedules are bit-identical at any
     *  thread count. */
    std::uint64_t rngSeed = 0;

    /** Static wear leveling: when the gap between the most-worn block
     *  and the least-worn *closed* block reaches this many erases, the
     *  cold block's pages are migrated so it re-enters rotation
     *  (SPIFTL-style cold-data migration). 0 = off. */
    std::uint64_t wearLevelSpread = 0;

    bool
    retirementEnabled() const
    {
        return ratedPeCycles > 0 || grownBadProb > 0.0;
    }

    bool
    enabled() const
    {
        return retirementEnabled() || wearLevelSpread > 0;
    }
};

/** Aggregate FTL counters. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;   ///< pages written by the host
    std::uint64_t hostReads = 0;    ///< pages read by the host
    std::uint64_t hostTrims = 0;    ///< pages invalidated by trim
    std::uint64_t gcCopies = 0;     ///< valid pages relocated by GC
    std::uint64_t gcRuns = 0;       ///< victim blocks reclaimed
    std::uint64_t erases = 0;       ///< block erase operations
    std::uint64_t readMisses = 0;   ///< reads of unmapped pages
    std::uint64_t wearLevelRuns = 0; ///< static wear-level migrations
    std::uint64_t retiredBlocks = 0; ///< blocks retired as bad

    /** Write amplification: NAND writes / host writes (1.0 if no GC). */
    double
    writeAmplification() const
    {
        return hostWrites == 0
            ? 1.0
            : static_cast<double>(hostWrites + gcCopies) /
                  static_cast<double>(hostWrites);
    }
};

/** Work performed by one FTL operation, for timing attribution. */
struct FtlOpResult
{
    bool mapped = false;          ///< (reads) page was mapped
    std::uint32_t gcPageCopies = 0; ///< valid-page relocations triggered
    std::uint32_t erases = 0;       ///< block erases triggered
    bool gcRan = false;             ///< any GC work was done
};

/**
 * Page-mapped FTL over a flat flash array.
 *
 * The host address space is sparse (logical pages are arbitrary
 * PageIds), so the L2P map is a hash map; capacity accounting is by
 * distinct mapped pages, which must stay within the exported capacity.
 * GC triggers when free blocks fall to the low watermark and reclaims
 * until the high watermark is restored.
 */
class PageMappedFtl
{
  public:
    /**
     * @param geo    Flash geometry (see makeGeometry()).
     * @param gc     Victim policy; defaults to GreedyGc.
     * @param lowWatermarkBlocks  Free-block count that triggers GC.
     * @param highWatermarkBlocks Free-block count GC tries to restore.
     *
     * Host writes and GC relocations stream into *separate* open blocks
     * so garbage collection always has somewhere to relocate into; with
     * the spare floor makeGeometry() enforces this makes the FTL
     * deadlock-free for any workload within the exported capacity.
     */
    explicit PageMappedFtl(FlashGeometry geo,
                           std::unique_ptr<GcVictimPolicy> gc = nullptr,
                           std::uint32_t lowWatermarkBlocks = 2,
                           std::uint32_t highWatermarkBlocks = 3);

    /**
     * Write one logical page (out-of-place program). May trigger GC;
     * the returned result reports the relocation/erase work so the
     * caller can charge time for it.
     */
    FtlOpResult write(PageId lpn, SimTime now);

    /** Read one logical page; result.mapped is false for unmapped. */
    FtlOpResult read(PageId lpn);

    /** Invalidate a logical page (the HSS evicted it off this device). */
    FtlOpResult trim(PageId lpn);

    /**
     * Arm the endurance model (retirement + static wear leveling).
     * Must be called before traffic; seeds the private grown-bad RNG
     * from @p cfg.rngSeed. A default-constructed config disarms.
     */
    void configureEndurance(const FtlEnduranceConfig &cfg);

    const FtlEnduranceConfig &endurance() const { return endurance_; }

    /** Blocks retired as bad so far. */
    std::uint32_t retiredBlocks() const { return retired_; }

    /** Largest per-block erase count, tracked incrementally so the
     *  per-request feature encoder can read wear in O(1). */
    std::uint64_t maxEraseCount() const { return maxErase_; }

    /**
     * True once retirement has eaten the two-spare-block floor the
     * geometry guarantees (flash_geometry.hh): the remaining usable
     * blocks no longer cover the exported capacity plus two spare
     * blocks, so GC forward progress is at risk and the owning device
     * should fail the drive out. Retirement itself stops at this floor
     * — the FTL degrades to a fixed worst state rather than panicking.
     */
    bool spareFloorBreached() const;

    /** True if @p lpn currently maps to a physical page. */
    bool isMapped(PageId lpn) const { return l2p_.count(lpn) != 0; }

    /** Distinct logical pages currently mapped. */
    std::uint64_t mappedPages() const { return l2p_.size(); }

    /** Free (fully erased) blocks. */
    std::uint32_t freeBlocks() const;

    const FlashGeometry &geometry() const { return geo_; }
    const FtlStats &stats() const { return stats_; }
    const std::vector<FlashBlock> &blocks() const { return blocks_; }

    /** Drop all mappings and wear state. */
    void reset();

    /**
     * Check internal invariants (every mapping points at a valid slot
     * owned by that lpn; valid counts match bitmaps; exactly one open
     * block). Returns an empty string when consistent, else a
     * description of the first violation. Used by property tests.
     */
    std::string checkInvariants() const;

  private:
    /** The two write streams (separate open blocks). */
    enum class Stream : std::uint8_t { Host, Gc };

    /** Open-block slot for @p stream (hostOpen_ or gcOpen_). */
    BlockIndex &openBlock(Stream stream);

    /** Reclaim blocks until freeBlocks() >= highWatermark_ or nothing
     *  reclaimable remains. */
    void collectGarbage(SimTime now, FtlOpResult &result);

    /** Program @p lpn into @p stream's open block, updating the maps;
     *  allocates a fresh block (and, for the host stream, runs GC)
     *  when the open block is full. */
    void programPage(PageId lpn, SimTime now, FtlOpResult &result,
                     Stream stream);

    /** Relocate a victim's valid pages and erase it. */
    void reclaimBlock(BlockIndex victim, SimTime now, FtlOpResult &result);

    /** Post-erase retirement decision for the block at @p victim. */
    bool shouldRetire(const FlashBlock &blk);

    /** One static wear-level migration, if the spread warrants it. */
    void wearLevelStep(SimTime now, FtlOpResult &result);

    /** Invalidate the current physical page of @p lpn, if any. */
    void invalidatePhys(PageId lpn);

    FlashGeometry geo_;
    std::unique_ptr<GcVictimPolicy> gc_;
    std::uint32_t lowWatermark_;
    std::uint32_t highWatermark_;

    std::vector<FlashBlock> blocks_;
    std::vector<BlockIndex> freeList_;
    BlockIndex hostOpen_ = kNoBlock; ///< host-write stream
    BlockIndex gcOpen_ = kNoBlock;   ///< GC-relocation stream

    std::unordered_map<PageId, PhysPage> l2p_;
    FtlStats stats_;
    bool inGc_ = false; ///< guards re-entrant GC during relocation

    FtlEnduranceConfig endurance_;
    Pcg32 badRng_;            ///< grown-bad draws; private stream so the
                              ///< device's jitter RNG is unperturbed
    std::uint32_t retired_ = 0;
    std::uint64_t maxErase_ = 0;
};

} // namespace sibyl::ftl
