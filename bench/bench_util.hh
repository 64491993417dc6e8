/**
 * @file
 * Shared scaffolding for the figure/table regeneration benches.
 *
 * Every bench prints (a) a header identifying the paper artifact it
 * regenerates, (b) a column-aligned table whose rows mirror the figure's
 * series, and (c) the AVG row the paper reports. Results are normalized
 * to the Fast-Only baseline exactly as in the paper.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace sibyl::bench
{

/** Which scalar a table reports. */
enum class Metric
{
    NormalizedLatency,   ///< avg request latency / Fast-Only (Figs. 2, 9...)
    NormalizedIops,      ///< IOPS / Fast-Only (Figs. 10, 14)
    EvictionFraction,    ///< evicting requests / all requests (Fig. 18)
    FastPreference,      ///< fast placements / all placements (Fig. 17)
};

/** Extract the configured metric from a result. */
double metricValue(Metric metric, const sim::PolicyResult &r);

/**
 * Half-width of a two-sided 95% confidence interval for the mean of
 * @p samples (Student's t for small n, 1.96 beyond the table). Zero
 * for fewer than two samples.
 */
double confidenceHalfWidth95(const std::vector<double> &samples);

/** Short human name of a metric (table caption). */
const char *metricName(Metric metric);

/**
 * Run the grid of @p s through scenario::runScenario (thread-count
 * invariant) and print, under a @p title banner, one table of
 * @p metric per HSS configuration: policies are columns, workloads
 * rows, and an AVG row holds the mean over workloads, as the paper
 * reports. With more than one seed every cell is the across-seed mean
 * with a 95% confidence half-width ("m±c"). Mixed workloads run at
 * half of s.traceLen, since a mix splits its request budget across
 * its components.
 *
 * When @p jsonPath is non-empty, the full result set is also written
 * there with s.name as its top-level "campaign" field, so one bench's
 * BENCH_*.json can be gated across PRs exactly like a campaign.
 */
void runLineup(scenario::ScenarioSpec s, const std::string &title,
               Metric metric = Metric::NormalizedLatency,
               const std::string &jsonPath = "");

/** Print the standard bench banner. */
void banner(const std::string &title);

/**
 * Request-count override for CI smoke runs: returns the value of the
 * SIBYL_BENCH_REQUESTS environment variable when set (and > 0), else
 * @p dflt. Every migrated bench threads this into its scenario's
 * traceLen, so `SIBYL_BENCH_REQUESTS=300 bench_x` finishes in seconds.
 */
std::size_t requestOverride(std::size_t dflt = 0);

/**
 * Row index of (config ci, workload wi, policy pi, seed si) in the
 * records returned for @p s — the ScenarioSpec::expand() nesting
 * order (hssConfig outermost, seed innermost).
 */
std::size_t recordIndex(const scenario::ScenarioSpec &s, std::size_t ci,
                        std::size_t wi, std::size_t pi,
                        std::size_t si = 0);

/** Mean of @p get over all workloads at (config ci, policy pi). */
double meanOverWorkloads(
    const scenario::ScenarioSpec &s,
    const std::vector<sim::RunRecord> &records, std::size_t ci,
    std::size_t pi,
    const std::function<double(const sim::RunRecord &)> &get,
    std::size_t si = 0);

/**
 * Attach a policyFinish hook to every spec that records one scalar
 * per run, read from the finished policy on the worker thread that
 * owned it (e.g. agent training rounds or storage bytes). Slot i of
 * the returned vector corresponds to specs[i]; slots are written
 * without synchronization, which is safe because each run owns its
 * index exclusively.
 */
std::shared_ptr<std::vector<double>> collectPolicyScalar(
    std::vector<sim::RunSpec> &specs,
    std::function<double(policies::PlacementPolicy &)> get);

/**
 * Minimal flat JSON emitter for machine-readable bench results
 * (BENCH_*.json files consumed by tooling/regression tracking).
 * Metrics keep insertion order.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string benchName)
        : benchName_(std::move(benchName))
    {
    }

    /** Record (or append) one scalar metric. */
    void add(const std::string &key, double value);

    /** Write {"bench": ..., "metrics": {...}} to @p path. */
    bool writeTo(const std::string &path) const;

  private:
    std::string benchName_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace sibyl::bench
