/**
 * @file
 * Regenerates Fig. 17 (§9 explainability): Sibyl's preference for the
 * fast device (#fast placements / #all placements) per workload under
 * H&M and H&L. The paper's key observation: the larger the latency gap
 * (H&L), the more aggressively Sibyl uses the fast device, despite the
 * eviction penalty.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec s;
    s.name = "fig17_preference";
    s.policies = {"Sibyl"};
    for (const auto &p : trace::msrcProfiles())
        s.workloads.push_back(p.name);
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = bench::requestOverride();
    bench::runLineup(s,
                     "Fig. 17: Sibyl's preference for the fast storage "
                     "device (#fast / #all placements)",
                     bench::Metric::FastPreference);

    std::printf("Paper reference: preference is higher in H&L than in "
                "H&M for most workloads — with a huge latency gap,\n"
                "serving from fast pays off despite more evictions; "
                "cold/sequential workloads prefer the slow device.\n");
    return 0;
}
