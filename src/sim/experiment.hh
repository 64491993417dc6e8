/**
 * @file
 * Result types of a (workload, HSS configuration, policy) run — the
 * Fast-Only-normalized PolicyResult every figure in the paper reports —
 * plus the policy factory shared by the runner, the benches and the
 * examples. Runs themselves are described by sim::RunSpec and executed
 * by sim::ParallelRunner (sim/parallel_runner.hh).
 */

#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/sibyl_config.hh"
#include "policies/policy.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace sibyl::sim
{

/** Per-tenant slice of a fleet run's results (sim/fleet.hh). */
struct TenantSummary
{
    std::string policy;          ///< tenant policy descriptor
    std::string workload;        ///< tenant workload name
    std::uint64_t tenantKey = 0; ///< the tenant's pseudo-run key
    RunMetrics metrics;          ///< full single-tenant metrics
};

/** One (policy, workload) outcome with Fast-Only normalization. */
struct PolicyResult
{
    std::string policy;
    std::string workload;
    RunMetrics metrics;

    /** avgLatency / FastOnly.avgLatency — the paper's y-axis. */
    double normalizedLatency = 0.0;

    /** steadyAvgLatency / FastOnly.steadyAvgLatency — the post-warmup
     *  view (second half of the trace), where an online learner has
     *  converged. Used by the exploration ablation. */
    double normalizedSteadyLatency = 0.0;

    /** iops / FastOnly.iops. */
    double normalizedIops = 0.0;

    /** Pages written per device (foreground + migration), for the
     *  endurance ablation. Index = DeviceId. */
    std::vector<std::uint64_t> devicePagesWritten;

    /** Total energy across all devices over the run, in millijoules,
     *  using the Table 3 power presets (energy ablation). */
    double totalEnergyMj = 0.0;

    /** Agent-health guardrail outcome (rl/guardrail.hh). Populated —
     *  and emitted into results JSON — only when the run's policy had
     *  the guardrail enabled, so guardrail-free result sets stay
     *  byte-identical. */
    bool guardrailEnabled = false;
    rl::GuardrailStats guardrail;

    /** Fleet runs only (sim/fleet.hh): per-tenant metric slices, in
     *  tenant order, and the Jain fairness index over per-tenant IOPS.
     *  Empty/unused for single-tenant runs, which therefore serialize
     *  byte-identically to the pre-fleet format. */
    std::vector<TenantSummary> tenants;
    double fairnessJain = 0.0;
};

/**
 * One floating-point scalar of a PolicyResult, under the name a
 * results record gives it. resultScalars() is the one list of them:
 * writeRecordJson emits them in its order, a campaign journal entry
 * is read back through it, and a scenario report picks its metric
 * from it. Exactly one of the two member pointers is set.
 */
struct ResultScalar
{
    const char *name = nullptr;
    double RunMetrics::*metric = nullptr;   ///< a RunMetrics field
    double PolicyResult::*result = nullptr; ///< or a PolicyResult one

    double get(const PolicyResult &r) const
    {
        return metric ? r.metrics.*metric : r.*result;
    }
    double &at(PolicyResult &r) const
    {
        return metric ? r.metrics.*metric : r.*result;
    }
};

/** Every ResultScalar, in results-record order. */
std::span<const ResultScalar> resultScalars();

/** The ResultScalar named @p name, or nullptr. */
const ResultScalar *findResultScalar(std::string_view name);

/** Device count of an HSS shorthand (throws std::invalid_argument
 *  for an unknown shorthand or an out-of-range fraction, as
 *  hss::makeHssConfig does). */
std::uint32_t numHssDevices(const std::string &hssConfig,
                            double fastCapacityFrac = 0.10);

/**
 * Policy factory — a thin wrapper over scenario::PolicyFactory, kept
 * for source compatibility (the parallel runner and every bench call
 * through here). @p name is a full policy *descriptor*: a registered
 * name ("Slow-Only", "Fast-Only", "CDE", "HPS", "Archivist",
 * "RNN-HSS", "Oracle", "Heuristic-Tri-Hybrid", "Heuristic-Multi-Tier",
 * "Sibyl", "Sibyl-C51", "Sibyl-DQN", "Sibyl-QTable", plus any
 * runtime-registered policy) optionally followed by {key=value,...}
 * parameters — e.g. "Sibyl{gamma=0.5}". For the Sibyl family,
 * @p sibylCfg supplies the base hyper-parameters that descriptor
 * params override. Throws std::invalid_argument for unknown names
 * (listing the registry) and bad parameters.
 */
std::unique_ptr<policies::PlacementPolicy>
makePolicy(const std::string &name, std::uint32_t numDevices,
           const core::SibylConfig &sibylCfg = core::SibylConfig());

/** The policy lineup of Figs. 9/10 (excluding Fast-Only, the divisor). */
const std::vector<std::string> &standardPolicyLineup();

} // namespace sibyl::sim
