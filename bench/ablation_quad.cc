/**
 * @file
 * Quad-hybrid extensibility ablation (§8.7 taken one device further).
 *
 * The paper's extensibility claim: adding a storage device to Sibyl
 * costs one extra action plus one capacity feature, while a heuristic
 * needs a new hand-tuned hotness band and re-tuned thresholds for every
 * tier. §8.7 demonstrates this with three devices; this bench pushes to
 * four (H > M > L_SSD > L, all Table 3 presets in one system) and runs
 * the generalized hot/warm/cold/frozen banding heuristic against the
 * unchanged Sibyl shell with numActions = 4 — one ScenarioSpec, two
 * policy descriptors.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

using namespace sibyl;

int
main()
{
    bench::banner("Quad-hybrid extensibility (extends §8.7/Fig. 16): "
                  "H&M&L_SSD&L, Sibyl vs N-tier banding heuristic");

    scenario::ScenarioSpec s;
    s.name = "ablation_quad";
    s.policies = {"Heuristic-Multi-Tier", "Sibyl"};
    s.workloads = {"hm_1",   "mds_0",   "prn_1",  "proj_0", "prxy_0",
                   "prxy_1", "rsrch_0", "src1_0", "usr_0",  "wdev_2"};
    s.hssConfigs = {"H&M&L_SSD&L"};
    s.fastCapacityFrac = 0.05; // §8.7 restricts H to 5% of the WSS
    s.traceLen = bench::requestOverride(0);

    sim::ParallelRunner runner;
    const auto records = runner.runAll(s.expand());

    TextTable tab;
    tab.header({"workload", "Heuristic norm. lat", "Sibyl norm. lat",
                "Sibyl placement share H/M/Ls/L"});
    double sums[2] = {0.0, 0.0};
    for (std::size_t wi = 0; wi < s.workloads.size(); wi++) {
        std::vector<std::string> row = {s.workloads[wi]};
        std::string shares;
        for (std::size_t pi = 0; pi < s.policies.size(); pi++) {
            const auto &r =
                records[s.recordIndex(0, wi, pi)].result;
            sums[pi] += r.normalizedLatency;
            row.push_back(cell(r.normalizedLatency, 2));
            if (s.policies[pi] == "Sibyl") {
                std::uint64_t total = 0;
                for (auto c : r.metrics.placements)
                    total += c;
                char buf[64];
                std::snprintf(
                    buf, sizeof(buf), "%.2f/%.2f/%.2f/%.2f",
                    static_cast<double>(r.metrics.placements[0]) / total,
                    static_cast<double>(r.metrics.placements[1]) / total,
                    static_cast<double>(r.metrics.placements[2]) / total,
                    static_cast<double>(r.metrics.placements[3]) / total);
                shares = buf;
            }
        }
        row.push_back(shares);
        tab.addRow(row);
    }
    const auto n = static_cast<double>(s.workloads.size());
    tab.addRow({"AVG", cell(sums[0] / n, 2), cell(sums[1] / n, 2), ""});
    tab.print(std::cout);

    std::printf(
        "\nExpected shape: as in the tri-hybrid result (Fig. 16), the\n"
        "RL policy beats the static banding heuristic on average — the\n"
        "heuristic's four hand-chosen bands cannot fit every workload,\n"
        "while Sibyl re-learns the placement per workload. Extending\n"
        "Sibyl to the fourth device changed no code: the action space\n"
        "and capacity features grow with numDevices automatically.\n");
    return 0;
}
