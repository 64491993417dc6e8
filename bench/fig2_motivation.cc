/**
 * @file
 * Regenerates Fig. 2 (§3 motivation): average request latency of the
 * baseline placement techniques, normalized to Fast-Only, on the six
 * motivation workloads under both dual-HSS configurations. The paper's
 * takeaway — no single baseline is close to the Oracle everywhere, and
 * some fall below Slow-Only — should be visible in the table.
 */

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec s;
    s.name = "fig2_motivation";
    s.policies = {"Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS",
                  "Oracle"};
    s.workloads = trace::motivationWorkloads();
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = bench::requestOverride();
    bench::runLineup(s, "Fig. 2: baseline policies vs Oracle on the "
                        "motivation workloads (normalized avg request "
                        "latency)");
    return 0;
}
