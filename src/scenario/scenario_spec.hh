/**
 * @file
 * Declarative experiment descriptions: a ScenarioSpec is the full
 * cross-product of an evaluation — policy descriptors x workloads x
 * HSS shorthands x seeds, plus trace shaping, simulation knobs, base
 * Sibyl hyper-parameter overrides, and declarative device overrides
 * (fault windows, channel counts, FTL selection). It parses from and
 * emits to JSON, so *any experiment in the repository is a file*: the
 * paper's figures (scenarios/paper/, with a report block), the
 * benches, the CLI's --scenario mode, and the golden-run tests all
 * lower the same structure onto sim::ParallelRunner.
 *
 * Lowering rule: expand() is the only grid lowering in the repository.
 * It emits one sim::RunSpec per cell in a fixed nesting order —
 * hssConfig (outermost), workload, policy, seed (innermost), which is
 * also the row order of the results — with every other field copied
 * from the scenario. Run keys, and hence every run's RNG streams,
 * follow from those fields alone (sim/parallel_runner.hh), so a grid
 * built from a file and one built in code are bit-identical. The
 * scenario layer adds zero simulation semantics of its own; it is a
 * serialization of the orchestration layer underneath.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "device/fault_model.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"

namespace sibyl::scenario
{

/**
 * Declarative tweak of one device slot of every run's HSS, applied
 * after hss::makeHssConfig (expand() lowers it to RunSpec::specTweak;
 * this is its serializable form). Zero-valued fields keep the preset.
 */
struct DeviceOverride
{
    /** Device slot (0 = fastest). Must exist in every hssConfig the
     *  scenario names; expand() validates. */
    std::uint32_t device = 0;

    /** Internal service channels; 0 keeps the preset. */
    std::uint32_t channels = 0;

    /** Mechanistic page-mapped FTL: -1 keeps the preset, 0/1 set. */
    int detailedFtl = -1;

    /** FTL pages per block; 0 keeps the preset. */
    std::uint32_t ftlPagesPerBlock = 0;

    /** Rated P/E cycles per flash block (endurance); 0 keeps the
     *  preset (no wear-out). Requires detailedFtl. */
    std::uint64_t ftlRatedPeCycles = 0;

    /** Per-erase grown-bad-block probability; negative keeps the
     *  preset (never). Requires detailedFtl. */
    double ftlGrownBadProb = -1.0;

    /** Static wear-leveling erase-count spread threshold; 0 keeps the
     *  preset (wear leveling off). Requires detailedFtl. */
    std::uint64_t ftlWearLevelSpread = 0;

    /** Degraded-performance windows appended to the device. */
    std::vector<device::DegradedWindow> faultWindows;

    /** Hard faults: offline (unreachable) windows appended to the
     *  device. */
    std::vector<device::OfflineWindow> offlineWindows;

    /** Permanent-failure time; negative keeps the preset (never). */
    double failAtUs = -1.0;

    /** Rebuild-rate budget (pages/ms) for draining this device after
     *  permanent failure; negative keeps the preset. */
    double drainPagesPerMs = -1.0;

    /** Host-side timeout before a resident read fails over to a
     *  healthy tier; negative keeps the preset. */
    double failoverTimeoutUs = -1.0;

    /** Escalate retry exhaustion to permanent failure: -1 keeps the
     *  preset, 0/1 set (tri-state like detailedFtl). */
    int failOnUnrecoverable = -1;

    /** Merge this override's fault fields into @p fc (windows append;
     *  scalar knobs overwrite only when set). The expand() tweak and
     *  the lowering-time validation share this, so what is validated
     *  is exactly what runs. */
    void applyFaults(device::FaultConfig &fc) const;

    /** The FaultConfig this override produces on a preset (fault-free)
     *  device — the whole-config validation input. */
    device::FaultConfig faultConfig() const;

    bool operator==(const DeviceOverride &) const = default;
};

/**
 * How `sibyl_cli --scenario` presents a lineup scenario (JSON key
 * "report"): a banner, then per HSS config one table of one record
 * scalar with workloads as rows, policies as columns and an AVG row,
 * then the reference text. Presentation only: expand() never reads
 * it, so it reaches no run key and no results bytes.
 */
struct ReportSpec
{
    std::string title;     ///< banner
    std::string metric;    ///< a reportMetricCaption() name
    std::string reference; ///< optional trailing text

    bool operator==(const ReportSpec &) const = default;
};

/** Table caption of the record scalar @p metric, or nullptr when a
 *  report cannot name it. A report may name normalizedLatency,
 *  normalizedIops, evictionFraction or fastPlacementPreference. */
const char *reportMetricCaption(const std::string &metric);

/** One declarative experiment (see file header). */
struct ScenarioSpec
{
    /** Scenario identifier (reports, file names). */
    std::string name = "scenario";

    /** Policy descriptors (scenario::PolicyFactory grammar). Mutually
     *  exclusive with `fleetTenants`. */
    std::vector<std::string> policies;

    /** Workload profile names — or mix names when mixedWorkloads.
     *  Mutually exclusive with `fleetTenants`. */
    std::vector<std::string> workloads;

    /** Multi-tenant fleet scenario (JSON key "fleet"): instead of a
     *  policies x workloads cross-product, every (hssConfig, seed)
     *  cell hosts ALL of these tenants in one interleaved fleet run
     *  (sim/fleet.hh). traceLen acts as the default tenant trace
     *  length; queueDepth/sibylParams/deviceOverrides apply to every
     *  tenant. */
    std::vector<sim::FleetTenant> fleetTenants;

    std::vector<std::string> hssConfigs = {"H&M"};
    std::vector<std::uint64_t> seeds = {42};

    bool mixedWorkloads = false;
    double fastCapacityFrac = 0.10;
    std::size_t traceLen = 0;
    std::uint64_t traceSeed = 0;
    double timeCompress = 1.0;

    /** Simulation-loop knobs (SimConfig subset that is plain data). */
    std::uint32_t queueDepth = 1;
    bool recordPerRequest = false;

    /** Base Sibyl hyper-parameter overrides applied to every run's
     *  SibylConfig *before* per-policy descriptor params (same key
     *  grammar as Sibyl{...}; values are strings: {"gamma": "0.5"}). */
    std::map<std::string, std::string> sibylParams;

    /** Declarative device tweaks applied to every policy run (never to
     *  the Fast-Only normalization baseline). */
    std::vector<DeviceOverride> deviceOverrides;

    /** Worker threads (0 = default pool size, 1 = serial oracle).
     *  Results are thread-count invariant; this is throughput only. */
    unsigned numThreads = 0;

    /** How the CLI prints the results; unset prints one row per run.
     *  Excludes `fleetTenants`. */
    std::optional<ReportSpec> report;

    bool operator==(const ScenarioSpec &) const = default;

    /**
     * Lower to runnable RunSpecs (see the lowering rule above), with
     * sibylParams applied to every spec's SibylConfig and the device
     * overrides attached as each spec's specTweak. Validates that
     * every policy descriptor resolves in the PolicyFactory, that
     * every hssConfig builds at fastCapacityFrac (hss::makeHssConfig),
     * that every override's device slot exists in every hssConfig,
     * that timeCompress >= 1, and that sibylParams holds no "seed"
     * (run seeds are derived); throws std::invalid_argument otherwise.
     */
    std::vector<sim::RunSpec> expand() const;

    /** Row index of (config ci, workload wi, policy pi, seed si) in
     *  expand()'s order (hssConfig outermost, seed innermost), which
     *  is also the order of runScenario()'s records. */
    std::size_t recordIndex(std::size_t ci, std::size_t wi,
                            std::size_t pi, std::size_t si = 0) const
    {
        return ((ci * workloads.size() + wi) * policies.size() + pi) *
                   seeds.size() +
               si;
    }
};

/** Parse a scenario JSON document. Unknown keys, ill-typed values, and
 *  malformed JSON throw std::invalid_argument with a diagnostic. */
ScenarioSpec parseScenarioJson(const std::string &text);

/** Serialize; parse(emit(s)) == s, and emit is byte-deterministic. */
std::string emitScenarioJson(const ScenarioSpec &spec);

/** Parse the scenario file at @p path (error messages name the file). */
ScenarioSpec loadScenarioFile(const std::string &path);

/** runner.runAll(spec.expand()) — records in expand() order. */
std::vector<sim::RunRecord> runScenario(const ScenarioSpec &spec,
                                        sim::ParallelRunner &runner);

/** Run with a fresh runner configured from spec.numThreads. */
std::vector<sim::RunRecord> runScenario(const ScenarioSpec &spec);

} // namespace sibyl::scenario
