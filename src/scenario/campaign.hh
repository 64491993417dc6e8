/**
 * @file
 * Campaign manifests: one JSON file that names several scenario files
 * and runs them as a single experiment set.
 *
 * A `CampaignSpec` lists scenario files (with optional per-entry tags
 * and request/seed overrides, so one manifest can be both the full
 * evaluation and its CI smoke shrink), lowers every named scenario
 * into one flat `sim::RunSpec` batch, and schedules the whole batch
 * across a single `sim::ParallelRunner` pass. Because every run's RNG
 * streams are derived from its stable run key — never from batch
 * position or scheduling — the merged campaign is bit-identical at any
 * thread count AND bit-identical to running each scenario file alone;
 * `tests/test_campaign.cc` pins both properties.
 *
 * Each run is serialized once, by `sim::writeRecordJson`, as it settles
 * (and journaled when checkpointing); the merged document keyed by
 * (campaign, scenario, run) splices those bytes into the one results
 * envelope, `sim::writeResultsDocument`. That document is what the
 * cross-PR regression gate (`compareResults`, surfaced as
 * `example_sibyl_regress` and CI's campaign step) diffs against the
 * previous PR's checked-in baseline: identity fields bit-exact, float
 * metrics within configurable per-metric percent bands, a markdown
 * delta table on any change, nonzero exit on regression.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "scenario/json.hh"
#include "scenario/scenario_spec.hh"

namespace sibyl::scenario
{

/** One manifest entry: a scenario file plus optional overrides. */
struct CampaignEntry
{
    /** Scenario JSON path, resolved against the manifest's directory
     *  when relative (CampaignSpec::baseDir). */
    std::string file;

    /** Label of this entry in the merged results ("tag" field).
     *  Defaults to the scenario's own name; distinct tags let one
     *  campaign run the same file twice under different overrides. */
    std::string tag;

    /** traceLen override for smoke shrinking (0 = keep the file's). */
    std::size_t requests = 0;

    /** Seeds override (empty = keep the file's). */
    std::vector<std::uint64_t> seeds;

    bool operator==(const CampaignEntry &) const = default;
};

/** A campaign manifest (see file header). */
struct CampaignSpec
{
    /** Campaign identifier — the top-level results key. */
    std::string name = "campaign";

    std::vector<CampaignEntry> entries;

    /** Worker threads for the merged batch (0 = default pool size,
     *  1 = serial oracle). Entry scenarios' own numThreads are
     *  ignored: one runner schedules the whole campaign. Results are
     *  thread-count invariant; this is throughput only. */
    unsigned numThreads = 0;

    /** Directory scenario paths resolve against; set by
     *  loadCampaignFile, not serialized (== ignores it). */
    std::string baseDir;

    bool operator==(const CampaignSpec &o) const;
};

/** Parse a campaign JSON manifest. Unknown keys, ill-typed values, and
 *  malformed JSON throw std::invalid_argument with a diagnostic. */
CampaignSpec parseCampaignJson(const std::string &text);

/** Serialize; parse(emit(c)) == c, and emit is byte-deterministic. */
std::string emitCampaignJson(const CampaignSpec &spec);

/** Parse the manifest at @p path; sets baseDir to its directory so
 *  relative scenario paths resolve next to the manifest. */
CampaignSpec loadCampaignFile(const std::string &path);

/** One scenario lowered inside a campaign: the spec after overrides,
 *  and its contiguous slice of the flat run batch. */
struct CampaignScenario
{
    std::string tag;
    ScenarioSpec scenario;
    std::size_t firstRun = 0;
    std::size_t runCount = 0;
};

/** The flat batch a campaign schedules in one runner pass. */
struct CampaignPlan
{
    std::vector<CampaignScenario> scenarios;
    std::vector<sim::RunSpec> specs;
};

/**
 * Load every entry's scenario file, apply overrides, and concatenate
 * the expansions in manifest order. Throws std::invalid_argument on an
 * unreadable/invalid scenario file or a duplicate (scenario, tag)
 * pair (the merged results would have colliding run keys).
 */
CampaignPlan lowerCampaign(const CampaignSpec &spec);

/** A finished campaign: the plan plus records in plan.specs order. */
struct CampaignResult
{
    CampaignPlan plan;
    std::vector<sim::RunRecord> records;

    /**
     * Exact `sim::writeRecordJson` bytes per run, in plan order, with
     * the run's "scenario"/"tag" fields. Always filled: fresh runs
     * store the bytes serialized as they settled (and journaled when
     * checkpointing), resumed runs the bytes read back from the
     * journal. writeCampaignResultsJson splices these into the merged
     * document — which is what makes a resumed merge byte-identical
     * to an uninterrupted one *by construction*, not by re-simulation.
     */
    std::vector<std::string> recordJson;

    /** Runs spliced from the journal instead of re-run (parallel to
     *  `records`; empty when nothing was resumed). Resumed records
     *  carry best-effort display fields parsed back from the journal;
     *  the authoritative bytes are in `recordJson`. */
    std::vector<bool> resumed;

    std::size_t resumedCount() const;
};

/**
 * Crash-safe campaign checkpointing. With a non-empty `dir`, every
 * finished run is journaled as one file — written via write-tmp +
 * atomic-rename, so a SIGKILL at any instant leaves either no entry or
 * a complete one, never a torn file. Journal entries are keyed by
 * (plan index, run key): editing the manifest or a scenario file
 * changes the key and silently invalidates stale entries. With
 * `resume`, journaled runs are skipped and their stored bytes spliced
 * into the merged results.
 */
struct CampaignCheckpoint
{
    /** Journal directory, created (with parents) when missing.
     *  Empty = checkpointing off. */
    std::string dir;

    /** Skip runs already journaled in `dir`; unreadable, unparsable,
     *  or key-mismatched entries are ignored and re-run. */
    bool resume = false;
};

/**
 * lowerCampaign + one runner.runAll over the whole batch, serializing
 * each run as it settles. With a checkpoint dir (see
 * CampaignCheckpoint) each run's bytes are journaled too, and on
 * resume only the specs without a valid journal entry run. The merged
 * writeCampaignResultsJson output is byte-identical whether the
 * campaign ran without a journal, uninterrupted with one, was killed
 * and resumed, or was resumed with every run already journaled.
 * Throws std::invalid_argument when the journal directory cannot be
 * created.
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           sim::ParallelRunner &runner,
                           const CampaignCheckpoint &ckpt = {});

/** Run with a fresh runner configured from spec.numThreads. */
CampaignResult runCampaign(const CampaignSpec &spec);

/** Merged results JSON keyed by (campaign, scenario, run): the
 *  result's recordJson in the one results envelope. */
void writeCampaignResultsJson(std::ostream &os, const CampaignSpec &spec,
                              const CampaignResult &result);

/** writeCampaignResultsJson() to @p path; false on I/O failure. */
bool writeCampaignResultsJsonFile(const std::string &path,
                                  const CampaignSpec &spec,
                                  const CampaignResult &result);

// ---------------------------------------------------------------------
// Cross-PR regression gate: diff two merged-results documents.
// ---------------------------------------------------------------------

/** Tolerance policy for compareResults. Identity fields (policy,
 *  workload, config, seed, scenario, tag, variant), the run key, and
 *  the request count are always bit-exact — they define *what ran*,
 *  and any drift is a regression regardless of bands. Every other
 *  numeric metric (latency/throughput scalars and the trajectory-
 *  dependent counters) is compared as |cur - base| <= tol * |base|,
 *  with tol = perMetric[name] when present, else relTol. */
struct GateTolerance
{
    /** Default relative band for non-exact metrics (0 = bit-exact). */
    double relTol = 0.0;

    /** Per-metric overrides, e.g. {"avgLatencyUs", 0.05}. */
    std::map<std::string, double> perMetric;

    /** Absolute floor added to the band — the full allowance is
     *  `abs + rel * |baseline|`, the golden-run shape. Without a
     *  floor, a metric whose baseline is 0 (promotions on a short
     *  smoke run, say) fails on the slightest cross-platform
     *  trajectory jitter no matter how wide the relative band. */
    double absTol = 0.0;

    /** Per-metric absolute floors, e.g. {"promotions", 5.0}. */
    std::map<std::string, double> perMetricAbs;

    /** Per-policy default relative bands, matched by descriptor
     *  prefix in order (first match wins): {"Sibyl", 0.05} gives
     *  every Sibyl-family run a 5% default while deterministic
     *  heuristics stay at relTol — the golden-run tolerance split.
     *  A perMetric entry still beats the policy band (it is the more
     *  specific statement). */
    std::vector<std::pair<std::string, double>> perPolicyRel;
};

/** One compared metric that moved. */
struct GateDelta
{
    std::string run;    ///< scenario/tag/policy/workload/config/seed
    std::string metric;
    double baseline = 0.0;
    double current = 0.0;

    /** For non-numeric mismatches (runKey drift, a bool flip): the
     *  two differing values verbatim, shown in place of the numeric
     *  columns so a determinism break is diffable from the report. */
    std::string baselineText, currentText;

    double tol = 0.0;      ///< relative band that applied
    double absTol = 0.0;   ///< absolute floor that applied
    bool regression = false;
};

/** Outcome of one baseline-vs-current comparison. */
struct GateReport
{
    /** Metrics whose values differ (regressions and in-band drift). */
    std::vector<GateDelta> deltas;

    /** Run ids present in the baseline but not in the current set —
     *  lost coverage, always a regression. */
    std::vector<std::string> missingRuns;

    /** Run ids only in the current set (new coverage, informational). */
    std::vector<std::string> addedRuns;

    std::size_t comparedRuns = 0;
    std::size_t comparedMetrics = 0;

    /** True when nothing regressed (in-band drift and additions ok). */
    bool pass() const;

    /** Number of out-of-band deltas (missing runs counted apart). */
    std::size_t regressionCount() const;

    /** Markdown delta table + summary line (empty-diff sets print the
     *  summary only). */
    void printMarkdown(std::ostream &os) const;
};

/**
 * Diff two merged-results documents (any results document: a runner's
 * or a campaign's). Runs are matched by (scenario, tag, policy,
 * workload, config, seed, variant) plus an occurrence counter for
 * exact duplicates. Throws std::invalid_argument when either document
 * is malformed (not the results-document shape), naming @p baselineName
 * or @p currentName in the diagnostic.
 */
GateReport compareResults(const JsonValue &baseline,
                          const JsonValue &current,
                          const GateTolerance &tol,
                          const std::string &baselineName = "baseline",
                          const std::string &currentName = "current");

/** compareResults over raw JSON text (parse errors name the inputs). */
GateReport compareResultsText(const std::string &baselineText,
                              const std::string &currentText,
                              const GateTolerance &tol,
                              const std::string &baselineName = "baseline",
                              const std::string &currentName = "current");

} // namespace sibyl::scenario
