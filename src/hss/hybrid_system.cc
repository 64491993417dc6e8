#include "hss/hybrid_system.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/logging.hh"

namespace sibyl::hss
{

HybridSystem::HybridSystem(std::vector<device::DeviceSpec> specs,
                           std::uint64_t seed)
    : meta_(static_cast<std::uint32_t>(specs.size()))
{
    if (specs.empty())
        fatal("HybridSystem: need at least one device");
    for (std::size_t i = 0; i < specs.size(); i++) {
        devices_.push_back(std::make_unique<device::BlockDevice>(
            specs[i], seed + i * 7919));
        // Endurance-armed devices can wear out into Failed, so the
        // same mask/drain machinery must watch them.
        if (specs[i].faults.hardFaultsEnabled() ||
            specs[i].enduranceEnabled())
            hardFaultsArmed_ = true;
    }
    if (hardFaultsArmed_ && devices_.size() > 32)
        fatal("HybridSystem: the placement mask covers at most 32 devices");
    counters_.placements.assign(devices_.size(), 0);
    placementMask_ = numDevices() >= 32
        ? 0xFFFFFFFFu
        : (1u << numDevices()) - 1u;
    drained_.assign(devices_.size(), false);
}

std::uint64_t
HybridSystem::accessCount(PageId page) const
{
    return meta_.accessCount(page);
}

std::uint64_t
HybridSystem::accessInterval(PageId page) const
{
    return meta_.accessInterval(page);
}

DeviceId
HybridSystem::placement(PageId page) const
{
    return meta_.placement(page);
}

double
HybridSystem::freeFraction(DeviceId dev) const
{
    const auto &d = *devices_.at(dev);
    return static_cast<double>(d.freePages()) /
           static_cast<double>(d.spec().capacityPages);
}

SimTime
HybridSystem::migratePage(PageId page, DeviceId dst, SimTime now,
                          bool dataInHand)
{
    DeviceId src = meta_.placement(page);
    assert(src != kNoDevice && src != dst);
    SimTime cost = 0.0;
    SimTime writeStart = now;
    if (!dataInHand) {
        // Evictions must first read the victim off its current device;
        // promotions that follow a foreground read already hold the data
        // in the host buffer and only pay the destination write.
        auto read = devices_[src]->access(now, OpType::Read, page, 1,
                                          device::AccessClass::Migration);
        cost += read.serviceUs;
        writeStart = read.finishUs;
    }
    auto write = devices_[dst]->access(writeStart, OpType::Write, page, 1,
                                       device::AccessClass::Migration);
    cost += write.serviceUs;
    devices_[src]->releasePages(1);
    devices_[src]->trimPage(page);
    devices_[dst]->occupyPages(1);
    meta_.remap(page, dst);
    return cost;
}

DeviceId
HybridSystem::nextHealthyBelow(DeviceId dev) const
{
    for (DeviceId d = dev + 1; d < numDevices(); d++)
        if (placementMask_ & (1u << d))
            return d;
    return numDevices();
}

void
HybridSystem::ensureCapacity(DeviceId dev, std::uint64_t pages, SimTime now,
                             ServeResult &result)
{
    auto &d = *devices_[dev];
    if (pages > d.spec().capacityPages)
        pages = d.spec().capacityPages; // clamp: request bigger than device

    while (d.freePages() < pages) {
        PageId victim = kInvalidPage;
        if (picker_)
            victim = picker_(dev);
        if (victim == kInvalidPage || meta_.placement(victim) != dev)
            victim = meta_.lruVictim(dev);
        if (victim == kInvalidPage)
            panic("HybridSystem: device full but no victim");

        // Evict to the next device down the hierarchy — skipping
        // unhealthy ones when hard faults are armed (nextHealthyBelow
        // degenerates to dev + 1 while every device is healthy).
        DeviceId target =
            hardFaultsArmed_ ? nextHealthyBelow(dev) : dev + 1;
        if (target >= numDevices())
            panic("HybridSystem: cannot evict from the slowest device");
        // Cascading eviction: make room on the target first.
        ensureCapacity(target, 1, now, result);
        SimTime moved = migratePage(victim, target, now);
        result.eviction = true;
        result.evictionTimeUs += moved;
        result.evictedPages++;
        counters_.evictedPages++;
    }
}

void
HybridSystem::advanceTo(SimTime now)
{
    if (!hardFaultsArmed_)
        return;
    std::uint32_t mask = 0;
    for (DeviceId d = 0; d < numDevices(); d++) {
        auto &dev = *devices_[d];
        const device::DeviceHealth h = dev.healthAt(now);
        if (h == device::DeviceHealth::Failed && !dev.permanentlyFailed())
            dev.markFailed(now);
        if (h == device::DeviceHealth::Healthy ||
            h == device::DeviceHealth::Degraded)
            mask |= 1u << d;
    }
    if (mask == 0)
        panic("HybridSystem: no healthy device remains at t=" +
              std::to_string(now) + "us — cannot serve");
    placementMask_ = mask;
    // Drain after the mask is current so the rebuild target selection
    // and any cascading evictions see this instant's health.
    for (DeviceId d = 0; d < numDevices(); d++) {
        if (devices_[d]->permanentlyFailed() && !drained_[d])
            drainFailedDevice(d, now);
    }
}

void
HybridSystem::drainFailedDevice(DeviceId dev, SimTime now)
{
    drained_[dev] = true;
    auto &src = *devices_[dev];
    if (src.usedPages() == 0)
        return;

    // Rebuild target: prefer the first healthy device slower than the
    // failed one (the usual failover direction — capacity lives below),
    // else the nearest healthy faster device.
    DeviceId target = nextHealthyBelow(dev);
    if (target >= numDevices()) {
        target = kNoDevice;
        for (DeviceId d = dev; d-- > 0;) {
            if (placementMask_ & (1u << d)) {
                target = d;
                break;
            }
        }
        if (target == kNoDevice)
            panic("HybridSystem: device '" + src.spec().name +
                  "' failed with no healthy rebuild target");
    }

    // Metadata-only moves: the failed media cannot be read, so the
    // rebuild data comes from redundancy (replica/parity), which the
    // timing model charges as bulk occupancy on the target below
    // instead of per-page source reads.
    std::uint64_t drainedPages = 0;
    ServeResult scratch; // drain is background work: eviction time not
                         // charged to any request
    while (src.usedPages() > 0) {
        PageId victim = meta_.lruVictim(dev);
        if (victim == kInvalidPage)
            panic("HybridSystem: failed device has residents but no "
                  "LRU victim");
        ensureCapacity(target, 1, now, scratch);
        src.releasePages(1);
        src.trimPage(victim);
        devices_[target]->occupyPages(1);
        meta_.remap(victim, target);
        drainedPages++;
    }
    counters_.drainedPages += drainedPages;

    const double rate = src.spec().faults.drainPagesPerMs;
    if (rate > 0.0 && drainedPages > 0) {
        // The rebuild occupies the target for drainedPages / rate
        // milliseconds, stalling foreground traffic behind it.
        devices_[target]->reserveBusy(
            now, static_cast<double>(drainedPages) / rate * 1000.0);
    }
}

double
HybridSystem::deviceAvailability(DeviceId dev, SimTime spanStart,
                                 SimTime spanEnd) const
{
    if (spanEnd <= spanStart)
        return 1.0;
    const double unavailable =
        devices_.at(dev)->unavailableUsWithin(spanStart, spanEnd);
    return std::clamp(1.0 - unavailable / (spanEnd - spanStart), 0.0, 1.0);
}

ServeResult
HybridSystem::serve(SimTime now, const trace::Request &req, DeviceId action)
{
    assert(action < numDevices());
    ServeResult result;
    counters_.requests++;

    if (hardFaultsArmed_) {
        advanceTo(now);
        if (!(placementMask_ & (1u << action))) {
            // The chosen device is unreachable: mask the action and
            // redirect to the fastest healthy tier. Mask-aware policies
            // never take this branch — it is the graceful-degradation
            // net for heuristics that do not consult the mask.
            action = static_cast<DeviceId>(std::countr_zero(placementMask_));
            counters_.maskedPlacements++;
            counters_.failedOps++;
            result.redirected = true;
        }
    }
    counters_.placements[action]++;

    // A request larger than the chosen device cannot fit there at all
    // (tiny fast devices in the capacity-sensitivity sweep); overflow to
    // the next device down the hierarchy (next *healthy* device when
    // hard faults are armed — identical while every device is healthy).
    while (action + 1 < numDevices() &&
           req.sizePages > devices_[action]->spec().capacityPages) {
        const DeviceId next =
            hardFaultsArmed_ ? nextHealthyBelow(action) : action + 1;
        if (next >= numDevices())
            break;
        action = next;
    }
    result.placedDevice = action;

    SimTime finish = now;

    // Touch recency first so this request's resident pages are MRU and
    // cannot be chosen as eviction victims while we make room for the
    // request's own allocation.
    for (PageId p = req.page; p < req.endPage(); p++)
        meta_.recordAccess(p);

    if (req.op == OpType::Write) {
        // All pages of the request will live on `action`. Free the old
        // copies, make room, then perform one foreground write. The set
        // of pages to (re)place is snapshotted before eviction runs so a
        // concurrent eviction cannot inflate it past the reserved space.
        std::vector<PageId> &toPlace = pageScratch_;
        toPlace.clear();
        bool anyFaster = false;
        bool anySlower = false;
        for (PageId p = req.page; p < req.endPage(); p++) {
            DeviceId cur = meta_.placement(p);
            if (cur == action)
                continue;
            toPlace.push_back(p);
            if (cur != kNoDevice) {
                devices_[cur]->releasePages(1);
                devices_[cur]->trimPage(p);
                if (cur > action)
                    anyFaster = true; // moving up the hierarchy
                else
                    anySlower = true;
            }
        }
        if (!toPlace.empty())
            ensureCapacity(action, toPlace.size(), now, result);
        for (PageId p : toPlace) {
            DeviceId cur = meta_.placement(p);
            if (cur == kNoDevice)
                meta_.map(p, action);
            else
                meta_.remap(p, action);
            devices_[action]->occupyPages(1);
        }
        if (anyFaster)
            counters_.promotions++;
        if (anySlower)
            counters_.demotions++;
        result.migrated = anyFaster || anySlower;

        auto t = devices_[action]->access(now, OpType::Write, req.page,
                                          req.sizePages);
        finish = t.finishUs;
        result.servedDevice = action;
    } else {
        // Read: first-touch pages materialize on the device the policy
        // chose (the placement decision governs where a request's data
        // lives), then the request is served wherever its pages reside.
        std::vector<PageId> &firstTouch = pageScratch_;
        firstTouch.clear();
        for (PageId p = req.page; p < req.endPage(); p++)
            if (meta_.placement(p) == kNoDevice)
                firstTouch.push_back(p);
        if (!firstTouch.empty()) {
            ensureCapacity(action, firstTouch.size(), now, result);
            for (PageId p : firstTouch) {
                if (meta_.placement(p) != kNoDevice)
                    continue;
                meta_.map(p, action);
                devices_[action]->occupyPages(1);
            }
        }

        PageId segStart = req.page;
        DeviceId segDev = meta_.placement(req.page);
        result.servedDevice = segDev;
        auto flushSegment = [&](PageId end) {
            DeviceId server = segDev;
            SimTime issueAt = now;
            if (hardFaultsArmed_ && !(placementMask_ & (1u << server))) {
                // Resident data on an unreachable device: the host pays
                // a deterministic command timeout, then re-issues the
                // read against the fastest healthy tier (the data is
                // reconstructed from redundancy there).
                issueAt =
                    now + devices_[server]->spec().faults.failoverTimeoutUs;
                server =
                    static_cast<DeviceId>(std::countr_zero(placementMask_));
                counters_.failoverReads++;
                counters_.failedOps++;
                if (segStart == req.page)
                    result.servedDevice = server;
            }
            auto t = devices_[server]->access(
                issueAt, OpType::Read, segStart,
                static_cast<std::uint32_t>(end - segStart));
            finish = std::max(finish, t.finishUs);
        };
        for (PageId p = req.page + 1; p < req.endPage(); p++) {
            DeviceId cur = meta_.placement(p);
            if (cur != segDev) {
                flushSegment(p);
                segStart = p;
                segDev = cur;
            }
        }
        flushSegment(req.endPage());

        // Promotion happens in the background after the data is served:
        // pages the policy wants on a *faster* device move up. Reads
        // never demote — data moves down the hierarchy only through
        // eviction, matching the promotion/eviction semantics of §2.1.
        // Snapshot the page set first so evictions triggered while
        // making room cannot grow it. (firstTouch is done with the
        // scratch buffer by this point.)
        std::vector<PageId> &toMove = pageScratch_;
        toMove.clear();
        for (PageId p = req.page; p < req.endPage(); p++)
            if (meta_.placement(p) > action) // slower than requested
                toMove.push_back(p);
        if (!toMove.empty()) {
            ensureCapacity(action, toMove.size(), finish, result);
            for (PageId p : toMove) {
                DeviceId cur = meta_.placement(p);
                if (cur <= action)
                    continue; // eviction already landed it there
                migratePage(p, action, finish, /*dataInHand=*/true);
            }
            counters_.promotions++;
            result.migrated = true;
        }
    }

    if (result.eviction)
        counters_.evictionEvents++;

    result.finishUs = finish;
    result.latencyUs = finish - now;
    return result;
}

void
HybridSystem::reset()
{
    for (auto &d : devices_)
        d->reset();
    meta_.reset();
    counters_ = HssCounters();
    counters_.placements.assign(devices_.size(), 0);
    placementMask_ = numDevices() >= 32
        ? 0xFFFFFFFFu
        : (1u << numDevices()) - 1u;
    drained_.assign(devices_.size(), false);
}

std::vector<device::DeviceSpec>
makeHssConfig(const std::string &shorthand, std::uint64_t workingSetPages,
              double fastCapacityFrac)
{
    using device::devicePreset;
    std::uint64_t wss = std::max<std::uint64_t>(workingSetPages, 64);
    // The fraction is user input (CLI --fast-frac, scenario files);
    // casting a negative, non-finite or oversized page count is
    // undefined, so reject it here, before any device is sized.
    if (!(fastCapacityFrac >= 0.0) ||
        !(fastCapacityFrac * static_cast<double>(wss) < 0x1p64)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", fastCapacityFrac);
        throw std::invalid_argument(
            std::string("makeHssConfig: fastCapacityFrac ") + buf +
            " must be finite, >= 0, and leave the fast device's page "
            "count (fraction x working set) within 64 bits");
    }
    auto frac = [&](double f) {
        return std::max<std::uint64_t>(
            16, static_cast<std::uint64_t>(f * static_cast<double>(wss)));
    };
    std::uint64_t slowCap = wss + wss / 2 + 1024; // never evicts

    std::vector<device::DeviceSpec> specs;
    if (shorthand == "H&M" || shorthand == "H&L") {
        specs.push_back(devicePreset("H"));
        specs[0].capacityPages = frac(fastCapacityFrac);
        specs.push_back(devicePreset(shorthand == "H&M" ? "M" : "L"));
        specs[1].capacityPages = slowCap;
    } else if (shorthand == "H&M&L" || shorthand == "H&M&L_SSD") {
        specs.push_back(devicePreset("H"));
        specs[0].capacityPages = frac(fastCapacityFrac); // §8.7 uses 5%
        specs.push_back(devicePreset("M"));
        specs[1].capacityPages = frac(0.10);
        specs.push_back(
            devicePreset(shorthand == "H&M&L" ? "L" : "L_SSD"));
        specs[2].capacityPages = slowCap;
    } else if (shorthand == "H&M&L_SSD&L") {
        // Quad-hybrid extensibility configuration (§8.7 taken one
        // device further): all four Table 3 devices in one system,
        // speed-ordered H > M > L_SSD > L. The upper tiers are
        // capacity-restricted so data migrates across all four levels,
        // as in the tri-hybrid setup.
        specs.push_back(devicePreset("H"));
        specs[0].capacityPages = frac(fastCapacityFrac);
        specs.push_back(devicePreset("M"));
        specs[1].capacityPages = frac(0.10);
        specs.push_back(devicePreset("L_SSD"));
        specs[2].capacityPages = frac(0.20);
        specs.push_back(devicePreset("L"));
        specs[3].capacityPages = slowCap;
    } else {
        // A typo'd shorthand must fail loudly and helpfully: it is
        // user input (CLI --config, scenario files), not a bug.
        throw std::invalid_argument(
            "makeHssConfig: unknown HSS configuration \"" + shorthand +
            "\" (valid: H&M H&L H&M&L H&M&L_SSD H&M&L_SSD&L)");
    }
    return specs;
}

} // namespace sibyl::hss
