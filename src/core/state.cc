#include "core/state.hh"

#include <algorithm>

namespace sibyl::core
{

StateEncoder::StateEncoder(const FeatureConfig &cfg,
                           std::uint32_t numDevices)
    : cfg_(cfg),
      numDevices_(numDevices),
      dim_(6 + (numDevices > 2 ? numDevices - 2 : 0) +
           (cfg.wearFeatures ? 2 : 0)),
      sizeBinner_(cfg.sizeBins),
      intervalBinner_(cfg.intervalBins),
      countBinner_(cfg.countBins),
      capacityBinner_(1.0, cfg.capacityBins)
{
}

ml::Vector
StateEncoder::encode(const hss::HybridSystem &sys,
                     const trace::Request &req) const
{
    ml::Vector obs;
    encodeInto(sys, req, obs);
    return obs;
}

void
StateEncoder::encodeInto(const hss::HybridSystem &sys,
                         const trace::Request &req, ml::Vector &out) const
{
    out.assign(dim_, 0.0f);
    ml::Vector &obs = out;
    std::uint32_t i = 0;
    const hss::PageFeatures page = sys.pageFeatures(req.page);

    // size_t: request size in pages, log-binned into 8 bins.
    obs[i++] = (cfg_.mask & kFeatSize)
        ? static_cast<float>(sizeBinner_.normalized(req.sizePages))
        : 0.0f;

    // type_t: read = 0, write = 1.
    obs[i++] = (cfg_.mask & kFeatType)
        ? (req.op == OpType::Write ? 1.0f : 0.0f)
        : 0.0f;

    // intr_t: page accesses since last reference, 64 log bins.
    obs[i++] = (cfg_.mask & kFeatInterval)
        ? static_cast<float>(intervalBinner_.normalized(page.accessInterval))
        : 0.0f;

    // cnt_t: total accesses to the page, 64 log bins.
    obs[i++] = (cfg_.mask & kFeatCount)
        ? static_cast<float>(countBinner_.normalized(page.accessCount))
        : 0.0f;

    // cap_t: remaining capacity of the fast device, 8 linear bins.
    obs[i++] = (cfg_.mask & kFeatCapacity)
        ? static_cast<float>(capacityBinner_.normalized(sys.freeFraction(0)))
        : 0.0f;

    // curr_t: current placement, normalized device index; unmapped pages
    // read as "slowest" (that is where a cold read would find them).
    if (cfg_.mask & kFeatCurrent) {
        DeviceId cur = page.placement;
        if (cur == kNoDevice)
            cur = numDevices_ - 1;
        obs[i++] = numDevices_ > 1
            ? static_cast<float>(cur) / static_cast<float>(numDevices_ - 1)
            : 0.0f;
    } else {
        i++;
    }

    // Tri-hybrid extension: remaining capacity of each middle device.
    for (std::uint32_t d = 1; d + 1 < numDevices_; d++) {
        obs[i++] = (cfg_.mask & kFeatCapacity)
            ? static_cast<float>(
                  capacityBinner_.normalized(sys.freeFraction(d)))
            : 0.0f;
    }

    // §11 endurance extension: GC pressure (write amplification above
    // 1.0, saturating at 2x) and consumed P/E life of the most-worn
    // detailed-FTL device. Both read O(1) FTL counters; both are 0 on
    // runs without a detailed FTL, so the features carry no
    // information there (like a masked feature).
    if (cfg_.wearFeatures) {
        float gcPressure = 0.0f;
        float wear = 0.0f;
        for (DeviceId d = 0; d < sys.numDevices(); d++) {
            const ftl::PageMappedFtl *f = sys.device(d).ftl();
            if (!f)
                continue;
            gcPressure = std::max(
                gcPressure,
                std::clamp(static_cast<float>(
                               f->stats().writeAmplification() - 1.0),
                           0.0f, 1.0f));
            const std::uint64_t rated = f->endurance().ratedPeCycles;
            if (rated > 0)
                wear = std::max(
                    wear,
                    std::min(1.0f,
                             static_cast<float>(f->maxEraseCount()) /
                                 static_cast<float>(rated)));
        }
        obs[i++] = gcPressure;
        obs[i++] = wear;
    }
}

} // namespace sibyl::core
