/**
 * @file
 * Regenerates Fig. 13 (§8.4): Sibyl's latency with different subsets of
 * the Table 1 state features in the H&L configuration. The subset
 * labels follow the paper (mapping documented in DESIGN.md):
 *   rt       = request attributes (size_t + type_t)
 *   ft       = access frequency (cnt_t)
 *   rt+ft, rt+ft+mt (adds intr_t), rt+ft+pt (adds curr_t), All (+cap_t).
 *
 * Declarative form: one Sibyl{features=...} descriptor per subset,
 * expanded over the motivation workloads through sim::ParallelRunner.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

using namespace sibyl;

int
main()
{
    bench::banner("Fig. 13: Sibyl with different state-feature subsets, "
                  "H&L (normalized avg request latency)");

    struct Subset
    {
        const char *label;
        const char *features; // Sibyl{features=...} value
    };
    const std::vector<Subset> subsets = {
        {"rt", "size|type"},
        {"ft", "count"},
        {"rt+ft", "size|type|count"},
        {"rt+ft+mt", "size|type|count|interval"},
        {"rt+ft+pt", "size|type|count|current"},
        {"All", "all"},
    };

    scenario::ScenarioSpec s;
    s.name = "fig13_features";
    for (const auto &sub : subsets)
        s.policies.push_back(std::string("Sibyl{features=") +
                             sub.features + "}");
    s.workloads = trace::motivationWorkloads();
    s.hssConfigs = {"H&L"};
    s.traceLen = bench::requestOverride(0);

    sim::ParallelRunner runner;
    const auto records = runner.runAll(s.expand());

    TextTable tab;
    std::vector<std::string> header = {"workload"};
    for (const auto &sub : subsets)
        header.push_back(sub.label);
    tab.header(header);

    for (std::size_t wi = 0; wi < s.workloads.size(); wi++) {
        std::vector<std::string> row = {s.workloads[wi]};
        for (std::size_t pi = 0; pi < subsets.size(); pi++)
            row.push_back(
                cell(records[s.recordIndex(0, wi, pi)]
                         .result.normalizedLatency,
                     2));
        tab.addRow(row);
    }
    std::vector<std::string> avg = {"AVG"};
    for (std::size_t pi = 0; pi < subsets.size(); pi++)
        avg.push_back(cell(
            bench::meanOverWorkloads(s, records, 0, pi,
                                     [](const sim::RunRecord &r) {
                                         return r.result
                                             .normalizedLatency;
                                     }),
            2));
    tab.addRow(avg);
    tab.print(std::cout);

    std::printf("\nPaper reference: using All features yields the lowest "
                "latency; single-feature variants still beat the\n"
                "heuristic that uses the same feature, because the RL "
                "agent optimizes the reward rather than a fixed rule.\n");
    return 0;
}
