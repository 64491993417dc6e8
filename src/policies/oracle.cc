#include "policies/oracle.hh"

#include <algorithm>

namespace sibyl::policies
{

OraclePolicy::OraclePolicy(const OracleConfig &cfg) : cfg_(cfg) {}

void
OraclePolicy::prepare(const trace::Trace &t, hss::HybridSystem &sys)
{
    sys_ = &sys;
    accesses_.clear();
    for (std::size_t i = 0; i < t.size(); i++) {
        const auto &r = t[i];
        for (PageId p = r.page; p < r.endPage(); p++)
            accesses_[p].push_back(static_cast<std::uint32_t>(i));
    }

    lookahead_ = cfg_.lookaheadRequests;
    if (lookahead_ == 0) {
        std::uint64_t fastCap = sys.device(0).spec().capacityPages;
        lookahead_ = static_cast<std::size_t>(
            cfg_.lookaheadPerPage * static_cast<double>(fastCap));
        lookahead_ = std::max<std::size_t>(lookahead_, 64);
    }

    // Cost-aware dead-write absorption: writing single-use data to the
    // fast device is profitable only when the slow device's random
    // write is costlier than the eventual (batched) eviction copy.
    const auto &fast = sys.device(0).spec();
    const auto &slow = sys.device(sys.numDevices() - 1).spec();
    double slowWrite = slow.writeLatencyUs +
        (slow.kind == device::DeviceKind::Hdd
             ? slow.seekUs + slow.rotationalUs
             : slow.randomPenaltyUs(OpType::Write));
    double evictCost = (fast.readLatencyUs + slowWrite) /
        device::kMigrationBatch;
    absorbDeadWrites_ = slowWrite > fast.writeLatencyUs + 2.0 * evictCost;

    // Optional per-page Belady victim selection (see OracleConfig).
    if (cfg_.beladyVictims)
        sys.setVictimPicker(
            [this](DeviceId dev) { return pickVictim(dev); });
}

std::size_t
OraclePolicy::nextUse(PageId page, std::size_t after) const
{
    auto it = accesses_.find(page);
    if (it == accesses_.end())
        return SIZE_MAX;
    const auto &v = it->second;
    auto pos = std::upper_bound(v.begin(), v.end(),
                                static_cast<std::uint32_t>(after));
    return pos == v.end() ? SIZE_MAX : static_cast<std::size_t>(*pos);
}

PageId
OraclePolicy::pickVictim(DeviceId dev)
{
    if (!sys_ || dev != 0)
        return kInvalidPage; // only manage the fast device

    while (!fastHeap_.empty()) {
        auto [recordedNext, page] = fastHeap_.top();
        if (sys_->placement(page) != dev) {
            fastHeap_.pop(); // page has moved; stale entry
            continue;
        }
        std::size_t fresh = nextUse(page, currentIndex_);
        if (fresh != recordedNext) {
            // Entry is stale (page was re-accessed); refresh lazily.
            fastHeap_.pop();
            fastHeap_.push({fresh, page});
            continue;
        }
        return page;
    }
    return kInvalidPage; // fall back to LRU inside the system
}

DeviceId
OraclePolicy::selectPlacement(const hss::HybridSystem &sys,
                              const trace::Request &req,
                              std::size_t reqIndex)
{
    const DeviceId fast = 0;
    const DeviceId slow = sys.numDevices() - 1;
    currentIndex_ = reqIndex;

    // Admission with complete future knowledge:
    //  - cache pages whose next use falls within a window calibrated to
    //    the fast-device capacity (further-out reuses would be evicted
    //    before they pay off), and
    //  - absorb small random writes when the slow device's positioning
    //    cost exceeds the eventual eviction cost (computed in prepare()).
    std::size_t soonest = SIZE_MAX;
    for (PageId p = req.page; p < req.endPage(); p++)
        soonest = std::min(soonest, nextUse(p, reqIndex));

    bool cacheWorthy =
        soonest != SIZE_MAX && soonest - reqIndex <= lookahead_;
    if (!cacheWorthy && absorbDeadWrites_ && req.op == OpType::Write &&
        req.sizePages <= 8) {
        cacheWorthy = true;
    }

    if (cacheWorthy) {
        if (cfg_.beladyVictims) {
            for (PageId p = req.page; p < req.endPage(); p++)
                fastHeap_.push({nextUse(p, reqIndex), p});
        }
        return fast;
    }
    return slow;
}

void
OraclePolicy::reset()
{
    accesses_.clear();
    currentIndex_ = 0;
    fastHeap_ = {};
    sys_ = nullptr;
    absorbDeadWrites_ = false;
}

} // namespace sibyl::policies
