#include "hss/metadata.hh"

#include "common/logging.hh"

namespace sibyl::hss
{

namespace
{

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    std::uint64_t p = 16;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

FlatPageMetaTable::FlatPageMetaTable(std::uint32_t numDevices)
    : FlatPageMetaTable(numDevices, Config())
{
}

FlatPageMetaTable::FlatPageMetaTable(std::uint32_t numDevices,
                                     const Config &cfg)
    : numDevices_(numDevices),
      maxLoad_(cfg.maxLoadFactor),
      heads_(numDevices, kNil),
      tails_(numDevices, kNil),
      counts_(numDevices, 0)
{
    if (numDevices == 0)
        fatal("PageMetaTable: need at least one device");
    if (maxLoad_ <= 0.0 || maxLoad_ >= 1.0)
        maxLoad_ = 0.60;
    const std::uint64_t slots =
        roundUpPow2(cfg.initialCapacity ? cfg.initialCapacity : 16);
    slots_.assign(slots, Slot());
    mask_ = slots - 1;
}

std::uint64_t
FlatPageMetaTable::hashPage(PageId page)
{
    // splitmix64 finalizer: page ids are near-contiguous, so full
    // avalanche keeps linear-probe clusters short.
    std::uint64_t x = page + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint32_t
FlatPageMetaTable::find(PageId page) const
{
    std::uint64_t i = hashPage(page) & mask_;
    while (true) {
        const Slot &s = slots_[i];
        if (s.page == page)
            return static_cast<std::uint32_t>(i);
        if (s.page == kInvalidPage)
            return kNil;
        i = (i + 1) & mask_;
    }
}

std::uint32_t
FlatPageMetaTable::findOrCreate(PageId page)
{
    if (static_cast<double>(size_ + 1) >
        maxLoad_ * static_cast<double>(slots_.size())) {
        grow(slots_.size() * 2);
    }
    std::uint64_t i = hashPage(page) & mask_;
    while (true) {
        Slot &s = slots_[i];
        if (s.page == page)
            return static_cast<std::uint32_t>(i);
        if (s.page == kInvalidPage) {
            s.page = page;
            size_++;
            return static_cast<std::uint32_t>(i);
        }
        i = (i + 1) & mask_;
    }
}

void
FlatPageMetaTable::grow(std::uint64_t minSlots)
{
    const std::uint64_t newSize = roundUpPow2(minSlots);
    if (newSize <= slots_.size())
        return;

    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(newSize, Slot());
    mask_ = newSize - 1;

    // Re-insert every entry, remembering old -> new slot positions so
    // the intrusive LRU links (and the per-device head/tail anchors)
    // can be translated without disturbing chain order.
    std::vector<std::uint32_t> remap(old.size(), kNil);
    for (std::size_t oi = 0; oi < old.size(); oi++) {
        if (old[oi].page == kInvalidPage)
            continue;
        std::uint64_t i = hashPage(old[oi].page) & mask_;
        while (slots_[i].page != kInvalidPage)
            i = (i + 1) & mask_;
        slots_[i] = old[oi];
        remap[oi] = static_cast<std::uint32_t>(i);
    }
    for (auto &s : slots_) {
        if (s.page == kInvalidPage)
            continue;
        if (s.lruPrev != kNil)
            s.lruPrev = remap[s.lruPrev];
        if (s.lruNext != kNil)
            s.lruNext = remap[s.lruNext];
    }
    for (std::uint32_t d = 0; d < numDevices_; d++) {
        if (heads_[d] != kNil)
            heads_[d] = remap[heads_[d]];
        if (tails_[d] != kNil)
            tails_[d] = remap[tails_[d]];
    }
}

void
FlatPageMetaTable::reserve(std::uint64_t pages)
{
    const auto want = static_cast<std::uint64_t>(
        static_cast<double>(pages) / maxLoad_ + 1.0);
    grow(roundUpPow2(want));
}

void
FlatPageMetaTable::unlink(std::uint32_t idx)
{
    Slot &s = slots_[idx];
    const DeviceId dev = s.placement;
    if (s.lruPrev != kNil)
        slots_[s.lruPrev].lruNext = s.lruNext;
    else
        heads_[dev] = s.lruNext;
    if (s.lruNext != kNil)
        slots_[s.lruNext].lruPrev = s.lruPrev;
    else
        tails_[dev] = s.lruPrev;
    s.lruPrev = kNil;
    s.lruNext = kNil;
}

void
FlatPageMetaTable::pushFront(std::uint32_t idx, DeviceId dev)
{
    Slot &s = slots_[idx];
    s.lruPrev = kNil;
    s.lruNext = heads_[dev];
    if (heads_[dev] != kNil)
        slots_[heads_[dev]].lruPrev = idx;
    heads_[dev] = idx;
    if (tails_[dev] == kNil)
        tails_[dev] = idx;
}

bool
FlatPageMetaTable::isMapped(PageId page) const
{
    const std::uint32_t i = find(page);
    return i != kNil && slots_[i].placement != kNoDevice;
}

DeviceId
FlatPageMetaTable::placement(PageId page) const
{
    const std::uint32_t i = find(page);
    return i == kNil ? kNoDevice : slots_[i].placement;
}

std::uint64_t
FlatPageMetaTable::accessCount(PageId page) const
{
    return features(page).accessCount;
}

std::uint64_t
FlatPageMetaTable::accessInterval(PageId page) const
{
    return features(page).accessInterval;
}

PageFeatures
FlatPageMetaTable::features(PageId page) const
{
    const std::uint32_t i = find(page);
    if (i == kNil)
        return {kNoDevice, 0, tick_};
    const Slot &s = slots_[i];
    return {s.placement, s.accessCount,
            s.accessCount == 0 ? tick_ : tick_ - s.lastAccessTick};
}

void
FlatPageMetaTable::recordAccess(PageId page)
{
    tick_++;
    const std::uint32_t i = findOrCreate(page);
    Slot &s = slots_[i];
    s.accessCount++;
    s.lastAccessTick = tick_;
    if (s.placement != kNoDevice && heads_[s.placement] != i) {
        // Refresh recency: move to MRU position. (Already-MRU pages
        // skip the relink; the legacy splice-to-front is order-
        // equivalent for that case.)
        const DeviceId dev = s.placement;
        unlink(i);
        pushFront(i, dev);
    }
}

void
FlatPageMetaTable::map(PageId page, DeviceId dev)
{
    if (dev >= numDevices_)
        panic("PageMetaTable::map: bad device id");
    const std::uint32_t i = findOrCreate(page);
    Slot &s = slots_[i];
    if (s.placement != kNoDevice)
        panic("PageMetaTable::map: page already mapped");
    s.placement = dev;
    pushFront(i, dev);
    counts_[dev]++;
}

void
FlatPageMetaTable::remap(PageId page, DeviceId dev)
{
    if (dev >= numDevices_)
        panic("PageMetaTable::remap: bad device id");
    const std::uint32_t i = find(page);
    if (i == kNil || slots_[i].placement == kNoDevice)
        panic("PageMetaTable::remap: page not mapped");
    Slot &s = slots_[i];
    counts_[s.placement]--;
    unlink(i);
    s.placement = dev;
    pushFront(i, dev);
    counts_[dev]++;
}

PageId
FlatPageMetaTable::lruVictim(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::lruVictim: bad device id");
    return tails_[dev] == kNil ? kInvalidPage : slots_[tails_[dev]].page;
}

std::uint64_t
FlatPageMetaTable::pagesOn(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::pagesOn: bad device id");
    return counts_[dev];
}

std::vector<PageId>
FlatPageMetaTable::residency(DeviceId dev) const
{
    if (dev >= numDevices_)
        panic("PageMetaTable::residency: bad device id");
    std::vector<PageId> out;
    out.reserve(counts_[dev]);
    for (std::uint32_t i = tails_[dev]; i != kNil; i = slots_[i].lruPrev)
        out.push_back(slots_[i].page);
    return out;
}

void
FlatPageMetaTable::reset()
{
    tick_ = 0;
    size_ = 0;
    // Keep the slot capacity: reset() precedes a rerun over the same
    // working set, so re-growing would only repeat rehash work.
    for (auto &s : slots_)
        s = Slot();
    for (std::uint32_t d = 0; d < numDevices_; d++) {
        heads_[d] = kNil;
        tails_[d] = kNil;
        counts_[d] = 0;
    }
}

} // namespace sibyl::hss
