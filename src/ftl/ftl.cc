#include "ftl/ftl.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace sibyl::ftl
{

namespace
{

/** Pcg32 stream id for the grown-bad RNG. Distinct from every other
 *  stream constant in the tree so arming endurance never perturbs the
 *  device jitter or agent draw sequences. */
constexpr std::uint64_t kGrownBadStream = 0xBADB10C5ULL;

} // namespace

bool
FlashGeometry::valid() const
{
    if (pagesPerBlock < 2 || totalBlocks < 3 || exportedPages == 0)
        return false;
    // Need at least one block of true spare so GC can relocate.
    return totalPages() >= exportedPages + pagesPerBlock;
}

FlashGeometry
makeGeometry(std::uint64_t exportedPages, double overprovision,
             std::uint32_t pagesPerBlock)
{
    // Config errors: a scenario's device override reaches here, so the
    // run fails in isolation instead of the process.
    if (exportedPages == 0)
        throw std::invalid_argument(
            "makeGeometry: exportedPages must be > 0");
    if (pagesPerBlock < 2)
        throw std::invalid_argument(
            "makeGeometry: pagesPerBlock must be >= 2 (got " +
            std::to_string(pagesPerBlock) + ")");
    overprovision = std::clamp(overprovision, 0.0, 0.5);

    FlashGeometry geo;
    geo.pagesPerBlock = pagesPerBlock;
    geo.exportedPages = exportedPages;

    const double physPages =
        static_cast<double>(exportedPages) / (1.0 - overprovision);
    auto blocks = static_cast<std::uint64_t>(
        std::ceil(physPages / pagesPerBlock));
    // Spare floor: 5 extra blocks beyond the exported capacity (host
    // open + GC open + GC reserve + high-watermark slack). Together
    // with the dual-stream design this guarantees GC forward progress
    // for any workload within the exported capacity.
    const std::uint64_t minBlocks =
        (exportedPages + pagesPerBlock - 1) / pagesPerBlock + 5;
    blocks = std::max(blocks, minBlocks);
    geo.totalBlocks = static_cast<std::uint32_t>(blocks);
    return geo;
}

PageMappedFtl::PageMappedFtl(FlashGeometry geo,
                             std::unique_ptr<GcVictimPolicy> gc,
                             std::uint32_t lowWatermarkBlocks,
                             std::uint32_t highWatermarkBlocks)
    : geo_(geo),
      gc_(gc ? std::move(gc) : std::make_unique<GreedyGc>()),
      lowWatermark_(std::max(1u, lowWatermarkBlocks)),
      highWatermark_(std::max(lowWatermarkBlocks + 1, highWatermarkBlocks))
{
    if (!geo_.valid())
        fatal("PageMappedFtl: invalid geometry (blocks=" +
              std::to_string(geo_.totalBlocks) +
              ", exported=" + std::to_string(geo_.exportedPages) + ")");
    blocks_.assign(geo_.totalBlocks, FlashBlock(geo_.pagesPerBlock));
    freeList_.reserve(geo_.totalBlocks);
    for (BlockIndex i = 0; i < geo_.totalBlocks; i++)
        freeList_.push_back(geo_.totalBlocks - 1 - i);
}

std::uint32_t
PageMappedFtl::freeBlocks() const
{
    return static_cast<std::uint32_t>(freeList_.size());
}

void
PageMappedFtl::configureEndurance(const FtlEnduranceConfig &cfg)
{
    endurance_ = cfg;
    badRng_.seed(cfg.rngSeed, kGrownBadStream);
}

bool
PageMappedFtl::spareFloorBreached() const
{
    // makeGeometry's forward-progress guarantee needs
    // ceil(exported/ppb) + 5 usable blocks (host open + GC open + GC
    // reserve + high-watermark slack); once retirement eats into that
    // floor the device is at end-of-life.
    const std::uint64_t minBlocks =
        (geo_.exportedPages + geo_.pagesPerBlock - 1) /
            geo_.pagesPerBlock +
        5;
    return static_cast<std::uint64_t>(geo_.totalBlocks - retired_) <
           minBlocks;
}

bool
PageMappedFtl::shouldRetire(const FlashBlock &blk)
{
    if (!endurance_.retirementEnabled())
        return false;
    // Never retire below the floor: the FTL stays serviceable (at its
    // worst state) while the owning device fails the drive out.
    if (spareFloorBreached())
        return false;
    // Defer retirement while the free pool is thin: a GC pass that
    // retires back-to-back victims would otherwise starve its own
    // relocation stream of open blocks. The block rejoins the pool and
    // retires on a later erase once slack returns.
    if (freeList_.size() < 2)
        return false;
    if (endurance_.ratedPeCycles > 0 &&
        blk.eraseCount() >= endurance_.ratedPeCycles)
        return true;
    return endurance_.grownBadProb > 0.0 &&
           badRng_.nextBool(endurance_.grownBadProb);
}

void
PageMappedFtl::invalidatePhys(PageId lpn)
{
    auto it = l2p_.find(lpn);
    if (it == l2p_.end())
        return;
    const PhysPage phys = it->second;
    const auto block = static_cast<BlockIndex>(phys / geo_.pagesPerBlock);
    const auto slot = static_cast<std::uint32_t>(phys % geo_.pagesPerBlock);
    blocks_.at(block).invalidate(slot);
    l2p_.erase(it);
}

BlockIndex &
PageMappedFtl::openBlock(Stream stream)
{
    return stream == Stream::Host ? hostOpen_ : gcOpen_;
}

void
PageMappedFtl::programPage(PageId lpn, SimTime now, FtlOpResult &result,
                           Stream stream)
{
    BlockIndex &open = openBlock(stream);
    if (open == kNoBlock) {
        // Only the host stream triggers GC; the GC stream must be able
        // to allocate from the reserve unconditionally, which the
        // geometry's spare floor guarantees is never empty mid-reclaim.
        if (stream == Stream::Host && !inGc_ &&
            freeList_.size() <= lowWatermark_) {
            collectGarbage(now, result);
        }
        if (freeList_.empty())
            panic("PageMappedFtl: no free blocks (GC cannot make "
                  "progress; exported capacity exceeded?)");
        open = freeList_.back();
        freeList_.pop_back();
        blocks_[open].setState(BlockState::Open);
    }
    auto &blk = blocks_[open];
    const std::uint32_t slot = blk.program(lpn, now);
    l2p_[lpn] = static_cast<PhysPage>(open) * geo_.pagesPerBlock + slot;
    if (blk.full()) {
        blk.setState(BlockState::Closed);
        open = kNoBlock;
    }
}

void
PageMappedFtl::collectGarbage(SimTime now, FtlOpResult &result)
{
    inGc_ = true;
    while (freeList_.size() < highWatermark_) {
        const BlockIndex victim = gc_->pickVictim(blocks_, now);
        if (victim == kNoBlock)
            break; // nothing closed yet; fresh device
        auto &blk = blocks_[victim];
        if (blk.validCount() >= geo_.pagesPerBlock) {
            // The chosen victim is fully valid: reclaiming it nets zero
            // free space. If any other closed block holds stale pages a
            // smarter victim exists; otherwise there is nothing to
            // reclaim and the spare blocks must carry the write stream
            // until overwrites create stale data.
            const BlockIndex alt = GreedyGc().pickVictim(blocks_, now);
            if (alt == kNoBlock ||
                blocks_[alt].validCount() >= geo_.pagesPerBlock) {
                break;
            }
            reclaimBlock(alt, now, result);
            continue;
        }
        reclaimBlock(victim, now, result);
    }
    if (endurance_.wearLevelSpread > 0)
        wearLevelStep(now, result);
    inGc_ = false;
}

void
PageMappedFtl::wearLevelStep(SimTime now, FtlOpResult &result)
{
    // Static wear leveling (SPIFTL-style): cold data parked on a
    // low-wear closed block pins that block out of rotation while the
    // rest of the device wears. When the erase gap between the
    // most-worn block and the least-worn closed block reaches the
    // configured spread, migrate the cold block's pages (through the
    // GC stream) so it rejoins the free pool. One migration per GC
    // pass bounds the added copy work.
    if (freeList_.empty())
        return;
    std::uint64_t maxErases = 0;
    BlockIndex coldest = kNoBlock;
    for (BlockIndex i = 0; i < blocks_.size(); i++) {
        const auto &b = blocks_[i];
        if (b.state() != BlockState::Bad)
            maxErases = std::max(maxErases, b.eraseCount());
        if (b.state() == BlockState::Closed &&
            (coldest == kNoBlock ||
             b.eraseCount() < blocks_[coldest].eraseCount()))
            coldest = i; // strict '<': ties break to the lowest id
    }
    if (coldest == kNoBlock)
        return;
    const std::uint64_t coldErases = blocks_[coldest].eraseCount();
    if (maxErases - coldErases < endurance_.wearLevelSpread)
        return;
    reclaimBlock(coldest, now, result);
    stats_.wearLevelRuns++;
}

void
PageMappedFtl::reclaimBlock(BlockIndex victim, SimTime now,
                            FtlOpResult &result)
{
    auto &blk = blocks_[victim];
    // Relocate the victim's valid pages into the open block.
    for (std::uint32_t slot = 0; slot < geo_.pagesPerBlock; slot++) {
        if (!blk.isValid(slot))
            continue;
        const PageId lpn = blk.owner(slot);
        blk.invalidate(slot);
        l2p_.erase(lpn);
        programPage(lpn, now, result, Stream::Gc);
        stats_.gcCopies++;
        result.gcPageCopies++;
    }
    blk.erase();
    maxErase_ = std::max(maxErase_, blk.eraseCount());
    stats_.erases++;
    stats_.gcRuns++;
    result.erases++;
    result.gcRan = true;
    if (shouldRetire(blk)) {
        // Worn out (rated P/E exceeded) or grown bad: retire from the
        // free pool, shrinking effective over-provisioning.
        blk.setState(BlockState::Bad);
        retired_++;
        stats_.retiredBlocks++;
    } else {
        freeList_.push_back(victim);
    }
}

FtlOpResult
PageMappedFtl::write(PageId lpn, SimTime now)
{
    FtlOpResult result;
    const bool overwrite = l2p_.count(lpn) != 0;
    if (!overwrite && mappedPages() >= geo_.exportedPages)
        fatal("PageMappedFtl: write beyond exported capacity (" +
              std::to_string(geo_.exportedPages) + " pages)");
    invalidatePhys(lpn);
    programPage(lpn, now, result, Stream::Host);
    stats_.hostWrites++;
    return result;
}

FtlOpResult
PageMappedFtl::read(PageId lpn)
{
    FtlOpResult result;
    result.mapped = l2p_.count(lpn) != 0;
    stats_.hostReads++;
    if (!result.mapped)
        stats_.readMisses++;
    return result;
}

FtlOpResult
PageMappedFtl::trim(PageId lpn)
{
    FtlOpResult result;
    result.mapped = l2p_.count(lpn) != 0;
    invalidatePhys(lpn);
    if (result.mapped)
        stats_.hostTrims++;
    return result;
}

void
PageMappedFtl::reset()
{
    blocks_.assign(geo_.totalBlocks, FlashBlock(geo_.pagesPerBlock));
    freeList_.clear();
    for (BlockIndex i = 0; i < geo_.totalBlocks; i++)
        freeList_.push_back(geo_.totalBlocks - 1 - i);
    hostOpen_ = kNoBlock;
    gcOpen_ = kNoBlock;
    l2p_.clear();
    stats_ = FtlStats();
    inGc_ = false;
    retired_ = 0;
    maxErase_ = 0;
    badRng_.seed(endurance_.rngSeed, kGrownBadStream);
}

std::string
PageMappedFtl::checkInvariants() const
{
    std::ostringstream err;

    // 1. Every L2P entry points at a valid slot owned by that lpn.
    for (const auto &[lpn, phys] : l2p_) {
        const auto block = static_cast<BlockIndex>(phys /
                                                   geo_.pagesPerBlock);
        const auto slot =
            static_cast<std::uint32_t>(phys % geo_.pagesPerBlock);
        if (block >= blocks_.size()) {
            err << "lpn " << lpn << " maps past the flash array";
            return err.str();
        }
        if (!blocks_[block].isValid(slot)) {
            err << "lpn " << lpn << " maps to stale slot " << phys;
            return err.str();
        }
        if (blocks_[block].owner(slot) != lpn) {
            err << "lpn " << lpn << " maps to slot owned by "
                << blocks_[block].owner(slot);
            return err.str();
        }
    }

    // 2. Per-block valid counts match bitmaps; total valid == mapped.
    std::uint64_t totalValid = 0;
    std::uint32_t openCount = 0;
    std::uint32_t freeCount = 0;
    std::uint32_t badCount = 0;
    for (BlockIndex i = 0; i < blocks_.size(); i++) {
        const auto &b = blocks_[i];
        std::uint32_t count = 0;
        for (std::uint32_t s = 0; s < geo_.pagesPerBlock; s++)
            count += b.isValid(s) ? 1 : 0;
        if (count != b.validCount()) {
            err << "block " << i << " validCount " << b.validCount()
                << " != bitmap " << count;
            return err.str();
        }
        totalValid += count;
        if (b.state() == BlockState::Open)
            openCount++;
        if (b.state() == BlockState::Free) {
            freeCount++;
            if (b.validCount() != 0 || b.writePtr() != 0) {
                err << "free block " << i << " not erased";
                return err.str();
            }
        }
        if (b.state() == BlockState::Bad) {
            badCount++;
            if (b.validCount() != 0 || b.writePtr() != 0) {
                err << "bad block " << i << " retired before erase";
                return err.str();
            }
        }
    }
    if (badCount != retired_) {
        err << "retired counter " << retired_ << " != bad blocks "
            << badCount;
        return err.str();
    }
    if (totalValid != l2p_.size()) {
        err << "valid pages " << totalValid << " != mapped "
            << l2p_.size();
        return err.str();
    }

    // 3. Open blocks match the two stream pointers.
    const std::uint32_t expectOpen = (hostOpen_ == kNoBlock ? 0 : 1) +
                                     (gcOpen_ == kNoBlock ? 0 : 1);
    if (openCount != expectOpen) {
        err << openCount << " open blocks, expected " << expectOpen;
        return err.str();
    }

    // 4. Free list is consistent with block states.
    if (freeCount != freeList_.size()) {
        err << "free list " << freeList_.size() << " != free blocks "
            << freeCount;
        return err.str();
    }
    return std::string();
}

} // namespace sibyl::ftl
