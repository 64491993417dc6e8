/**
 * @file
 * Shared scaffolding for the figure/table regeneration benches whose
 * tables are not a plain lineup (those are scenario files under
 * scenarios/paper/, printed by `sibyl_cli --scenario`).
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

/** Print the standard bench banner. */
void banner(const std::string &title);

/**
 * Request-count override for CI smoke runs: returns the value of the
 * SIBYL_BENCH_REQUESTS environment variable when set (and > 0), else
 * @p dflt. Every migrated bench threads this into its scenario's
 * traceLen, so `SIBYL_BENCH_REQUESTS=300 bench_x` finishes in seconds.
 */
std::size_t requestOverride(std::size_t dflt = 0);

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
