/**
 * @file
 * Parallel experiment orchestration.
 *
 * Shards a batch of RunSpecs (usually scenario::ScenarioSpec::expand()
 * of a policies x workloads x HSS configs x seeds grid) across cores:
 * each run is an independent (trace, system, policy) simulation
 * writing its PolicyResult into a preallocated slot, traces are
 * generated once and shared read-only through a trace::TraceCache, and
 * Fast-Only baselines are computed once per (config, trace, seed) and
 * shared the same way. `ParallelConfig::numThreads = 1` runs the
 * identical work inline on the calling thread in spec order — the
 * serial equivalence oracle the determinism tests compare the parallel
 * path against.
 *
 * ## Run-key -> RNG-stream derivation rule
 *
 * Every run owns private RNG streams derived from a *stable run key*,
 * never from scheduling order, thread ids, or global counters — this is
 * what makes N-thread results bit-identical to the serial path:
 *
 *  1. `runKey(spec)` = FNV-1a 64-bit hash of the canonical run string
 *     `policy NUL traceKey.canonical() NUL hssConfig NUL fastFrac(%.17g)
 *      NUL seed NUL queueDepth NUL skipPrepare [NUL variantTag]`
 *     — i.e. exactly the fields that influence simulation dynamics
 *     (the trailing variantTag component is appended only when
 *     non-empty, standing in for the unhashable specTweak closure it
 *     describes). Batch position, thread count, and result-only
 *     knobs (recordPerRequest) are deliberately excluded — as are the
 *     `guardrail*` params of a policy descriptor: run supervision is
 *     observation-only until it trips, so "Sibyl" and
 *     "Sibyl{guardrail=1}" share one run key and therefore one
 *     trajectory (the zero-behavior-change claim is a bit-identity).
 *  2. `deriveStream(runKey, salt)` = splitmix64(runKey ^
 *     splitmix64(salt)): independent well-mixed streams per salt.
 *  3. A run's device-jitter seed is deriveStream(runKey,
 *     kDeviceJitterSalt) and its Sibyl agent seed is deriveStream(
 *     runKey, kAgentSalt): RunSpec::seed reaches the simulation only
 *     through the run key, and RunSpec::sibylCfg.seed is overwritten
 *     (a Sibyl{seed=N} descriptor still pins it, because descriptor
 *     params apply after derivation). The Fast-Only
 *     baseline, shared by every policy on the same (config, trace,
 *     seed), uses deriveStream(baselineKey, kDeviceJitterSalt) where
 *     baselineKey is the run key of a pseudo-run with policy
 *     "Fast-Only-baseline". The runner is the only code that derives
 *     these seeds; a caller that holds its own policy object calls
 *     runPolicyExperiment() with seeds of its choosing.
 *
 * Changing the canonical string format invalidates every golden-run
 * snapshot; treat it like an on-disk format.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/trace_cache.hh"

namespace sibyl::sim
{

/** Salts for deriveStream(); one per independent per-run stream. */
inline constexpr std::uint64_t kDeviceJitterSalt = 0xD591CE5EEDULL;
inline constexpr std::uint64_t kAgentSalt = 0xA9E27A11ULL;

struct FleetSpec; // sim/fleet.hh

/** Policy descriptor with the run-supervision (guardrail*) and
 *  wear-feature ablation (wearFeatures) params stripped — the identity
 *  string hashed into run keys (see the derivation-rule comment
 *  above). */
std::string policyIdentity(const std::string &policy);

/** One cell of an experiment grid: everything that defines a run. */
struct RunSpec
{
    /** Policy name understood by makePolicy(). */
    std::string policy = "Sibyl";

    /** Workload profile name — or mix name when `mixedWorkload`. */
    std::string workload = "prxy_1";
    bool mixedWorkload = false;

    /** HSS shorthand ("H&M", "H&L", "H&M&L", "H&M&L_SSD", quad). */
    std::string hssConfig = "H&M";
    double fastCapacityFrac = 0.10;

    /** Trace shape: request count (0 = default), generator seed
     *  (0 = per-workload default), and time compression. */
    std::size_t traceLen = 0;
    std::uint64_t traceSeed = 0;
    double timeCompress = 1.0;

    /** Experiment seed; feeds the run key, from which the run's
     *  device-jitter and agent seeds are derived. */
    std::uint64_t seed = 42;

    SimConfig sim;
    core::SibylConfig sibylCfg;

    /** Optional hook applied to the device specs of the policy run —
     *  e.g. to inject fault windows or tweak device parameters. The
     *  Fast-Only normalization baseline ignores it: it stays the
     *  healthy reference. */
    std::function<void(std::vector<device::DeviceSpec> &)> specTweak;

    /**
     * Canonical description of what specTweak does (fault windows,
     * channel overrides, FTL selection...). specTweak itself is an
     * unhashable closure, but it influences simulation dynamics, so
     * any caller installing one should set this tag: when non-empty
     * it is folded into the run key and emitted as the "variant"
     * field of writeResultsJson — distinguishing e.g. a faulted run
     * from its healthy control in result sets. Scenario-layer
     * deviceOverrides set it automatically. Empty tags leave the run
     * key byte-identical to the pre-tag format (golden snapshots
     * unaffected).
     */
    std::string variantTag;

    /** Replay this trace instead of synthesizing `workload` (used by
     *  the CLI's --trace). Bypasses the cache; `workload` and
     *  `traceLen` should still describe it for the run key. */
    std::shared_ptr<const trace::Trace> externalTrace;

    /** Multi-tenant fleet description (sim/fleet.hh). When set, the
     *  run interleaves the fleet's tenants instead of replaying one
     *  (policy, workload) pair: `policy`/`workload` become display
     *  identities ("Fleet" / "fleet:..."), the fleet composition is
     *  folded into the run key, and policySetup/policyFinish hooks are
     *  not invoked. traceLen acts as the default tenant trace length
     *  for tenants that do not pin their own. */
    std::shared_ptr<const FleetSpec> fleet;

    /** Optional hooks around the policy's lifetime, e.g. checkpoint
     *  warm-start/save. Called from the worker thread that owns the
     *  run; must not touch other runs' state. */
    std::function<void(policies::PlacementPolicy &)> policySetup;
    std::function<void(policies::PlacementPolicy &)> policyFinish;

    /** Cache identity of this spec's trace. */
    trace::TraceKey traceKey() const;
};

/**
 * Fast-Only reference run for @p t: the fast device of @p spec's
 * hssConfig is sized to hold the entire working set, per the paper's
 * baseline definition, and the devices jitter from @p deviceSeed. Reads
 * only spec.hssConfig and spec.sim (never the policy, the capacity
 * fraction or specTweak). Deterministic; touches no shared state.
 */
RunMetrics computeFastOnlyBaseline(const RunSpec &spec,
                                   const trace::Trace &t,
                                   std::uint64_t deviceSeed);

/**
 * Post-run device accounting for the endurance/energy ablations: add
 * @p sys's per-device pages written to r.devicePagesWritten (grown to
 * the device count) and its energy over @p makespanUs to
 * r.totalEnergyMj. A fleet calls it once per tenant.
 */
void addDeviceAccounting(const hss::HybridSystem &sys, double makespanUs,
                         PolicyResult &r);

/**
 * The single-run core: run @p policy on @p t in a freshly built system
 * of @p spec's hssConfig, fastCapacityFrac and specTweak, with devices
 * jittering from @p deviceSeed and the loop driven by spec.sim, and
 * normalize against @p baseline. Deterministic; touches no shared
 * state.
 */
PolicyResult runPolicyExperiment(const RunSpec &spec,
                                 const trace::Trace &t,
                                 policies::PlacementPolicy &policy,
                                 const RunMetrics &baseline,
                                 std::uint64_t deviceSeed);

/** One finished (or failed) run. */
struct RunRecord
{
    RunSpec spec;
    std::uint64_t runKey = 0;
    PolicyResult result;

    /** "ok", or "failed" when every attempt threw — `result` is then
     *  default-constructed and `error` carries the diagnostic. */
    std::string status = "ok";

    /** "phase: what" diagnostic of the last failed attempt (phase is
     *  one of trace/baseline/policy/simulate/finish). */
    std::string error;

    /** Attempts consumed (1 = first try succeeded; > 1 records a
     *  transient failure that a retry recovered, or the bound at
     *  which a persistent failure was given up on). */
    std::uint32_t attempts = 1;

    bool failed() const { return status != "ok"; }
};

/** Orchestration knobs. */
struct ParallelConfig
{
    /** Worker count: 0 = ThreadPool::defaultThreads() (SIBYL_THREADS
     *  env override, else hardware concurrency); 1 = serial oracle. */
    unsigned numThreads = 0;

    /**
     * Bounded retry budget per run (total attempts, >= 1). A retry is
     * a *fresh* attempt: per-run RNG streams are pure functions of
     * the run key, so a transient failure (e.g. an I/O hiccup in a
     * policy hook) replays the identical trajectory. A configuration
     * error (std::invalid_argument: an unknown policy, a bad fault
     * window, a zero cadence) is deterministic and is recorded after
     * its first attempt without a retry.
     */
    unsigned maxAttempts = 2;
};

/**
 * Runs RunSpec batches across a worker pool. Stateless between runAll()
 * calls except for the trace and baseline caches, which persist so
 * successive batches over the same workloads reuse them.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(ParallelConfig cfg = ParallelConfig());

    /** Called after each run settles (success or recorded failure),
     *  from the worker thread that owned the run, with the spec index
     *  and the finished record. Used by the campaign checkpoint
     *  journal; must be safe to call concurrently for distinct runs. */
    using RunDoneFn =
        std::function<void(std::size_t, const RunRecord &)>;

    /**
     * Run every spec and return records in spec order (index i of the
     * result corresponds to specs[i] regardless of scheduling). Runs
     * fail in isolation: a run that still throws after its retry
     * budget is recorded as a structured failure (RunRecord::status/
     * error), and every other run completes bit-exact to a batch
     * without it.
     */
    std::vector<RunRecord> runAll(const std::vector<RunSpec> &specs);

    /** runAll() with a per-run completion hook. */
    std::vector<RunRecord> runAll(const std::vector<RunSpec> &specs,
                                  const RunDoneFn &onRunDone);

    trace::TraceCache &traceCache() { return traces_; }
    const ParallelConfig &config() const { return cfg_; }

    /** Fast-Only baselines computed so far (for tests/diagnostics). */
    std::size_t baselineCount() const;

    /** Stable run key of @p spec (see file header for the rule). */
    static std::uint64_t runKey(const RunSpec &spec);

    /** Independent RNG stream for (@p key, @p salt). */
    static std::uint64_t deriveStream(std::uint64_t key,
                                      std::uint64_t salt);

  private:
    std::shared_ptr<const trace::Trace> traceFor(const RunSpec &spec);
    std::shared_ptr<const RunMetrics>
    baselineFor(const RunSpec &spec, const trace::Trace &t);
    void runOne(const RunSpec &spec, RunRecord &rec,
                const char *&phase);

    ParallelConfig cfg_;
    trace::TraceCache traces_;
    mutable std::mutex baselineMutex_;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const RunMetrics>>>
        baselines_;
};

/** The campaign scenario a record belongs to: its leading "scenario"
 *  and "tag" fields, keying a merged set by (campaign, scenario, run). */
struct RecordGroup
{
    std::string scenario; ///< scenario name ("scenario" field)
    std::string tag;      ///< manifest tag ("tag" field)
};

/**
 * The one serializer of a run's results: one record as the JSON object
 * a results document lists (no surrounding array or indentation).
 * @p group, when non-null, contributes the leading "scenario"/"tag"
 * fields. Failed records emit the identity fields plus "status"/
 * "error"/"attempts" and no metrics; runs that needed a retry gain an
 * "attempts" field; the guardrail, fault, endurance and fleet blocks
 * are inline and appear only for runs that have them. A campaign
 * serializes each run once, as it settles, and its checkpoint journal
 * stores precisely these bytes, which is what makes a resumed merge
 * byte-identical by construction.
 */
void writeRecordJson(std::ostream &os, const RunRecord &r,
                     const RecordGroup *group = nullptr);

/**
 * The one results-document envelope: `{"campaign": ..., "results":
 * [...], "seedCount": N}` around the already serialized @p recordJson
 * (writeRecordJson bytes, one per record, in order). The "campaign"
 * field appears only when @p campaign is non-empty; seedCount counts
 * the distinct experiment seeds of @p records, so downstream tooling
 * knows how many repetitions back a mean/CI aggregation.
 */
void writeResultsDocument(std::ostream &os, const std::string &campaign,
                          const std::vector<RunRecord> &records,
                          const std::vector<std::string> &recordJson);

/**
 * Structured result sink: @p records as one results document, each
 * serialized by writeRecordJson (spec identity plus the
 * Fast-Only-normalized metrics). Doubles are printed with %.17g so two
 * bit-identical result sets serialize to byte-identical JSON; the
 * regression gate diffs two such files.
 */
void writeResultsJson(std::ostream &os,
                      const std::vector<RunRecord> &records,
                      const std::string &campaign = "");

/** writeResultsJson() to @p path via write-tmp + atomic-rename
 *  (scenario::writeTextFileAtomic), so an interrupted process never
 *  leaves a truncated results file; returns false on I/O failure. */
bool writeResultsJsonFile(const std::string &path,
                          const std::vector<RunRecord> &records,
                          const std::string &campaign = "");

} // namespace sibyl::sim
