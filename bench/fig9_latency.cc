/**
 * @file
 * Regenerates Fig. 9 — the paper's headline result: average request
 * latency of Slow-Only, CDE, HPS, Archivist, RNN-HSS, Sibyl, and Oracle
 * across all fourteen MSRC workloads, normalized to Fast-Only, under
 * the performance-oriented (H&M) and cost-oriented (H&L) configurations.
 *
 * Expected shape: Sibyl at or near the best baseline on every workload
 * and best on average, reaching a large fraction of Oracle performance;
 * Slow-Only catastrophic in H&L.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec s;
    s.name = "fig9_latency";
    s.policies = sim::standardPolicyLineup();
    for (const auto &p : trace::msrcProfiles())
        s.workloads.push_back(p.name);
    s.hssConfigs = {"H&M", "H&L"};
    // Three seeds turn every cell into mean±95% CI (the paper's error
    // bars); SIBYL_BENCH_REQUESTS shrinks the 3x cost to a CI smoke.
    s.seeds = {42, 43, 44};
    s.traceLen = bench::requestOverride();
    bench::runLineup(s,
                     "Fig. 9: average request latency across the 14 "
                     "MSRC workloads (normalized to Fast-Only)",
                     bench::Metric::NormalizedLatency, "BENCH_fig9.json");

    std::printf("Paper reference (shape, not absolute): Sibyl beats the "
                "best prior baseline by ~21.6%% (H&M) / ~19.9%% (H&L)\n"
                "on average and reaches ~80%% of Oracle performance.\n");
    return 0;
}
