/**
 * @file
 * The hybrid storage system front end (storage management layer).
 *
 * Presents the unified logical address space of Fig. 1: a request
 * addresses logical pages; the management layer consults the mapping
 * table, serves the request on the devices holding the data, migrates
 * pages when the placement decision disagrees with current residency
 * (promotion), and evicts cold pages down the device hierarchy when a
 * device fills up. Devices are ordered fastest-first: device 0 is the
 * fast device, device N-1 the (never-evicting) slowest.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "device/block_device.hh"
#include "hss/metadata.hh"
#include "trace/trace.hh"

namespace sibyl::hss
{

/** Outcome of serving one request — everything a policy can observe. */
struct ServeResult
{
    /** End-to-end request latency (queue + service of the foreground
     *  operation, including any eviction the request had to wait for). */
    SimTime latencyUs = 0.0;

    /** Completion time of the foreground operation. */
    SimTime finishUs = 0.0;

    /** Device that served the (first page of the) request. */
    DeviceId servedDevice = 0;

    /** True if any eviction was triggered while serving this request.
     *  Drives the reward penalty term of Eq. (1). */
    bool eviction = false;

    /** Total device time spent on evictions for this request (L_e). */
    SimTime evictionTimeUs = 0.0;

    /** Pages evicted while serving this request. */
    std::uint64_t evictedPages = 0;

    /** True if the request caused a promotion/migration of its pages. */
    bool migrated = false;

    /** Device the request's pages were placed on after health masking
     *  and capacity overflow (== the requested action in a fault-free
     *  run with a fitting request). */
    DeviceId placedDevice = 0;

    /** True when the requested action targeted an unhealthy device and
     *  the placement was redirected to the fastest healthy tier. */
    bool redirected = false;
};

/** Aggregate counters for the explainability metrics (Figs. 17, 18). */
struct HssCounters
{
    std::uint64_t requests = 0;
    std::uint64_t evictionEvents = 0;   ///< requests that triggered eviction
    std::uint64_t evictedPages = 0;
    std::uint64_t promotions = 0;       ///< upward migrations
    std::uint64_t demotions = 0;        ///< policy-directed downward moves
    /** Per-device count of placement decisions (actions). */
    std::vector<std::uint64_t> placements;

    // Hard-fault / graceful-degradation counters (all zero unless a
    // device arms hard faults).
    std::uint64_t maskedPlacements = 0; ///< actions redirected off unhealthy devices
    std::uint64_t failoverReads = 0;    ///< resident reads re-issued to a healthy tier
    std::uint64_t failedOps = 0;        ///< ops that hit an unhealthy device
    std::uint64_t drainedPages = 0;     ///< pages rebuilt off failed devices
};

/**
 * N-device hybrid storage system.
 *
 * The placement *action* for a request chooses the device its pages
 * should live on; the system performs whatever foreground accesses and
 * background migrations that implies and reports the request latency,
 * which doubles as Sibyl's reward signal.
 */
class HybridSystem
{
  public:
    /**
     * @param specs Device parameter sets, fastest first. Every spec must
     *              have capacityPages set; the last device should be
     *              large enough to hold the whole working set.
     * @param seed  Seed for device jitter RNGs.
     */
    explicit HybridSystem(std::vector<device::DeviceSpec> specs,
                          std::uint64_t seed = 42);

    /** Number of devices. */
    std::uint32_t numDevices() const
    {
        return static_cast<std::uint32_t>(devices_.size());
    }

    /**
     * Serve @p req, placing its pages on device @p action.
     *
     * @param now    Arrival time (already adjusted for host-side queueing
     *               by the simulator).
     * @param req    The request.
     * @param action Placement decision in [0, numDevices).
     */
    ServeResult serve(SimTime now, const trace::Request &req,
                      DeviceId action);

    // --- Feature accessors (read *before* calling serve(), so policies
    //     observe the pre-action state, as in Algorithm 1).

    /** Total accesses to @p page so far (cnt_t). */
    std::uint64_t accessCount(PageId page) const;

    /** Page accesses since last reference to @p page (intr_t). */
    std::uint64_t accessInterval(PageId page) const;

    /** Current placement of @p page (curr_t), kNoDevice if unmapped. */
    DeviceId placement(PageId page) const;

    /** placement(), accessCount() and accessInterval() of @p page from
     *  one metadata probe. */
    PageFeatures pageFeatures(PageId page) const
    {
        return meta_.features(page);
    }

    /** Remaining capacity fraction of @p dev in [0,1] (cap_t). */
    double freeFraction(DeviceId dev) const;

    /** Device accessor. */
    device::BlockDevice &device(DeviceId id) { return *devices_.at(id); }
    const device::BlockDevice &device(DeviceId id) const
    {
        return *devices_.at(id);
    }

    const HssCounters &counters() const { return counters_; }
    const PageMetaTable &metadata() const { return meta_; }

    // --- Hard-fault machinery. Inert (and cost-free on the serve path)
    //     unless some device spec arms hard faults.

    /** True when any device's FaultConfig arms a hard-fault mechanism
     *  (offline window, failAtUs, or retry escalation). */
    bool hardFaultsArmed() const { return hardFaultsArmed_; }

    /**
     * Advance the health clock to @p now: recompute the placement mask
     * from every device's health, latch newly-failed devices, and drain
     * their residents to a healthy tier. serve() calls this itself; the
     * simulator also calls it before each decision so policies observe
     * a fresh mask. No-op when hard faults are unarmed.
     */
    void advanceTo(SimTime now);

    /**
     * Bitmask of devices that currently accept placements (bit d =
     * device d is Healthy or Degraded). All-ones over numDevices() when
     * hard faults are unarmed — policies and agents may consult it
     * unconditionally.
     */
    std::uint32_t placementMask() const { return placementMask_; }

    /** Fraction of [spanStart, spanEnd) during which @p dev was
     *  reachable, in [0, 1]. 1.0 for a healthy run. */
    double deviceAvailability(DeviceId dev, SimTime spanStart,
                              SimTime spanEnd) const;

    /**
     * Install a custom eviction-victim picker (used by the Oracle, which
     * selects the resident page with the farthest next use). The picker
     * receives the device to evict from and must return a page currently
     * resident there, or kInvalidPage to fall back to LRU.
     */
    using VictimPicker = std::function<PageId(DeviceId)>;
    void setVictimPicker(VictimPicker picker) { picker_ = std::move(picker); }

    /** Drop all dynamic state (mapping, device queues, counters). */
    void reset();

  private:
    /**
     * Ensure @p pages free pages exist on @p dev at time @p now, evicting
     * LRU (or picker-chosen) pages to the next slower device. Returns the
     * total eviction device time and accumulates into @p result.
     */
    void ensureCapacity(DeviceId dev, std::uint64_t pages, SimTime now,
                        ServeResult &result);

    /** Migrate one page from its current device to @p dst at @p now,
     *  returning the time the copy occupied the devices. When
     *  @p dataInHand is true the source read is skipped (promotion right
     *  after a foreground read already holds the data). */
    SimTime migratePage(PageId page, DeviceId dst, SimTime now,
                        bool dataInHand = false);

    /** First placement-accepting device strictly slower than @p dev per
     *  the current mask, or numDevices() when none remains. */
    DeviceId nextHealthyBelow(DeviceId dev) const;

    /** Rebuild a freshly-failed device's residents onto a healthy tier
     *  (metadata-only moves — the data comes from redundancy, not the
     *  dead media), charging the rebuild target's channels under the
     *  drainPagesPerMs budget. */
    void drainFailedDevice(DeviceId dev, SimTime now);

    std::vector<std::unique_ptr<device::BlockDevice>> devices_;
    PageMetaTable meta_;
    HssCounters counters_;
    VictimPicker picker_;

    /** True when any device spec arms hard faults (set once in the
     *  ctor; gates every health check on the serve path). */
    bool hardFaultsArmed_ = false;

    /** Devices currently accepting placements (bit per device). */
    std::uint32_t placementMask_ = 0xFFFFFFFFu;

    /** Per-device flag: residents already drained after failure. */
    std::vector<bool> drained_;

    /** Reused page-set scratch for serve()'s snapshot loops (write
     *  placement set, read first-touch set, promotion set — used one
     *  at a time), so the steady-state request path performs no heap
     *  allocation. */
    std::vector<PageId> pageScratch_;
};

/**
 * Build the standard experiment configurations from Table 3.
 *
 * @param shorthand "H&M", "H&L", "H&M&L", "H&M&L_SSD", or the
 *        quad-hybrid "H&M&L_SSD&L".
 * @param workingSetPages  Unique pages of the workload; used to size
 *        devices: fast = fastCapacityFrac of WSS, mid (tri) = 10% of WSS,
 *        slowest = unbounded (1.5x WSS).
 * @param fastCapacityFrac Fraction of the working set the fast device
 *        holds (default 0.10 per §3; §8.7 uses 0.05 for tri-hybrid H).
 * @throws std::invalid_argument for an unknown shorthand, or for a
 *        fraction that is negative, NaN or infinite, or whose page
 *        count (fraction x working set) does not fit 64 bits.
 */
std::vector<device::DeviceSpec>
makeHssConfig(const std::string &shorthand, std::uint64_t workingSetPages,
              double fastCapacityFrac = 0.10);

} // namespace sibyl::hss
