/**
 * @file
 * Device fault injection: transient error retries and degradation
 * windows.
 *
 * The paper's central argument for a latency-shaped reward is that the
 * served request latency "significantly varies depending on ... the
 * internal state and characteristics of the device", explicitly
 * including *error handling latencies* (§5, §11). Real flash devices
 * re-issue reads at adjusted voltages when ECC fails (read-retry,
 * Park et al. [87]) and can spend orders of magnitude longer on a
 * request during media degradation. This module injects exactly those
 * effects into the timing model so that (a) the reward signal carries
 * realistic error-handling noise and (b) the fault-ablation bench can
 * test whether an online learner re-routes traffic away from a device
 * that degrades mid-run — an adaptivity test no static heuristic can
 * pass.
 *
 * Soft mechanisms (latency-only, orthogonal):
 *  - Transient errors: with a per-op probability, the command fails
 *    and is retried; each retry re-pays a multiple of the base command
 *    latency. An op that exhausts its retries pays a final (large)
 *    recovery cost and then succeeds — by default the block layer
 *    never sees a hard failure, only latency, matching how an
 *    enterprise drive's internal RAID/ECC recovery appears to the
 *    host.
 *  - Degradation windows: during [startUs, endUs) the whole service
 *    time is multiplied by a factor, modeling thermal throttling, a
 *    failing head, or a firmware rebuild.
 *
 * Hard mechanisms (availability — the device health state machine):
 *  - Offline windows: during [startUs, endUs) the device is
 *    unreachable (controller reset, firmware update, link flap).
 *    Reads resident there pay a deterministic timeout-and-failover
 *    cost; new placements are masked away.
 *  - Permanent failure: at failAtUs the device dies for the rest of
 *    the run; its residents are drained/rebuilt onto a healthy tier
 *    under the drainPagesPerMs budget. An op that exhausts its soft
 *    retries can also escalate to permanent failure when
 *    failOnUnrecoverable is set (wear-out past the drive's internal
 *    recovery, SPIFTL-style bad-media retirement).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace sibyl::device
{

/** One degraded-performance interval of a device's lifetime. */
struct DegradedWindow
{
    SimTime startUs = 0.0;          ///< window start (simulated time)
    SimTime endUs = 0.0;            ///< window end (exclusive)
    double latencyMultiplier = 1.0; ///< service-time factor inside it

    bool operator==(const DegradedWindow &) const = default;
};

/** One interval during which the device is unreachable (hard fault):
 *  a controller reset, firmware update, or transport flap. The device
 *  retains its data and comes back at endUs. */
struct OfflineWindow
{
    SimTime startUs = 0.0; ///< outage start (simulated time)
    SimTime endUs = 0.0;   ///< outage end (exclusive)

    bool operator==(const OfflineWindow &) const = default;
};

/**
 * Health of a device at a point in simulated time, consulted per
 * access by the serving layer. Ordered by severity: Healthy and
 * Degraded devices accept placements (Degraded just runs slower);
 * Offline devices are temporarily unreachable; Failed is terminal.
 */
enum class DeviceHealth : std::uint8_t
{
    Healthy,
    Degraded,
    Offline,
    Failed,
};

/** Fault-injection knobs. Defaults inject nothing. */
struct FaultConfig
{
    /** Probability that one read/write command attempt errors and is
     *  retried. Applied per attempt, so retries can themselves fail. */
    double readErrorProb = 0.0;
    double writeErrorProb = 0.0;

    /** Retry attempts before the device escalates to full recovery. */
    std::uint32_t maxRetries = 3;

    /** Each retry costs retryMultiplier x the base command latency
     *  (the command is re-issued with adjusted parameters). */
    double retryMultiplier = 2.0;

    /** Charged once when all retries are exhausted (heroic ECC/RAID
     *  recovery), after which the op completes. 0 = just the retries. */
    double recoveryUs = 0.0;

    /** Degraded-performance intervals. Overlapping windows multiply. */
    std::vector<DegradedWindow> windows;

    /** Unreachability intervals (hard fault). Must not overlap each
     *  other — an outage either holds or it does not. */
    std::vector<OfflineWindow> offlineWindows;

    /** Permanent-failure point: the device dies at this simulated time
     *  and never comes back. Negative = never fails (default). */
    double failAtUs = -1.0;

    /** Escalate an op that exhausts its soft retries to a permanent
     *  failure instead of the heroic-recovery success path. */
    bool failOnUnrecoverable = false;

    /** Rebuild-rate budget for draining a failed device's residents to
     *  a healthy tier, in pages per millisecond of occupancy charged
     *  to the rebuild target. 0 = unthrottled (metadata-only drain). */
    double drainPagesPerMs = 0.0;

    /** Deterministic host-side cost of detecting that a resident read
     *  targets an offline device and re-issuing it against the
     *  failover tier (command timeout + path switch). */
    double failoverTimeoutUs = 5000.0;

    /** True when any *soft* (latency-only) mechanism can fire. The
     *  per-access fault math in BlockDevice is gated on this. */
    bool enabled() const;

    /** True when any *hard* (availability) mechanism is armed: offline
     *  windows, a failAtUs point, or retry escalation. The serving
     *  layer's health/mask machinery is gated on this. */
    bool hardFaultsEnabled() const;

    bool operator==(const FaultConfig &) const = default;
};

/** Validate one degradation window: finite bounds, end > start, and a
 *  positive finite multiplier. Returns "" when well-formed, else a
 *  diagnostic naming the offending value (no "DegradedWindow" prefix —
 *  callers add their own context, e.g. "faultWindows[2]: ..."). */
std::string validateWindow(const DegradedWindow &w);

/** Validate one offline window the same way: finite bounds, end >
 *  start. Callers add their own context ("offlineWindows[1]: ..."). */
std::string validateWindow(const OfflineWindow &w);

/** Validate a whole FaultConfig the same way: probabilities in [0, 1],
 *  non-negative finite multiplier/recovery, well-formed windows,
 *  non-overlapping offline windows, finite non-negative drain and
 *  failover rates, and a failAtUs outside every offline window (a
 *  device cannot permanently fail while already unreachable — the two
 *  outage accountings would overlap). Scenario lowering rejects
 *  configs this flags instead of silently simulating nonsense (NaN
 *  probabilities never fire, negative multipliers produce time
 *  travel), and the FaultModel ctor enforces the same rules for
 *  directly-constructed configs. */
std::string validateFaultConfig(const FaultConfig &cfg);

/** Canonical identity string of a FaultConfig, folded into run keys
 *  when a fault set rides outside the scenario layer (per-tenant fleet
 *  faults): a faulted run and its healthy control must never share an
 *  identity. Empty for a default (nothing-configured) config so
 *  pre-existing identities are unchanged. Frozen byte format. */
std::string faultConfigCanonical(const FaultConfig &cfg);

/** Aggregate fault-handling counters. */
struct FaultCounters
{
    std::uint64_t erroredOps = 0;  ///< ops that hit >= 1 error
    std::uint64_t retries = 0;     ///< total retry attempts
    std::uint64_t recoveries = 0;  ///< ops that exhausted retries
    std::uint64_t degradedOps = 0; ///< ops inside a degradation window
    double errorLatencyUs = 0.0;   ///< total added error-handling time
};

/**
 * Stateless evaluator over a FaultConfig plus running counters. The
 * owning BlockDevice consults it per access; randomness comes from the
 * device's own RNG so runs stay reproducible.
 */
class FaultModel
{
  public:
    /** Throws std::invalid_argument when validateFaultConfig() rejects
     *  @p cfg. */
    explicit FaultModel(FaultConfig cfg = FaultConfig());

    /** True when any fault mechanism is configured. */
    bool enabled() const { return cfg_.enabled(); }

    /**
     * Combined latency multiplier of the degradation windows containing
     * @p startUs (1.0 outside all windows). Counts the op as degraded
     * when the multiplier differs from 1.
     */
    double degradationMultiplier(SimTime startUs);

    /**
     * Extra latency for the error handling of one command, in us.
     * Draws one Bernoulli trial per attempt from @p rng.
     *
     * @param op            Read or write (selects the error rate).
     * @param baseCommandUs Base command latency the retries re-pay.
     */
    double errorLatencyUs(OpType op, double baseCommandUs, Pcg32 &rng);

    /** True when the most recent errorLatencyUs() call exhausted every
     *  retry. With FaultConfig::failOnUnrecoverable the owning device
     *  escalates this to a permanent failure instead of charging the
     *  heroic-recovery latency. */
    bool lastOpExhaustedRetries() const { return lastExhausted_; }

    const FaultCounters &counters() const { return counters_; }
    const FaultConfig &config() const { return cfg_; }

    void resetCounters()
    {
        counters_ = FaultCounters();
        lastExhausted_ = false;
    }

  private:
    FaultConfig cfg_;
    FaultCounters counters_;
    bool lastExhausted_ = false;
};

} // namespace sibyl::device
