/**
 * @file
 * Agent-family ablation (§4.1 / §6.2.1).
 *
 * The paper chooses value-function approximation over a tabular agent
 * ("high storage and computation overhead for environments with a
 * large number of states", §4.1) and a distributional C51 head over a
 * scalar DQN ("this distribution helps Sibyl to capture more
 * information from the environment", §6.2.1). This bench runs all
 * three agent families — as policy descriptors through the scenario
 * layer — and reports performance plus the learned-policy storage
 * footprint.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/sibyl_policy.hh"
#include "rl/agent.hh"

using namespace sibyl;

int
main()
{
    bench::banner("Agent ablation (§4.1/§6.2.1): C51 vs plain DQN vs "
                  "tabular Q-learning");

    struct Family
    {
        const char *label;
        const char *descriptor;
    };
    const std::vector<Family> families = {
        {"C51 (paper)", "Sibyl-C51"},
        {"C51 + PER", "Sibyl-C51{per=1}"},
        {"DQN", "Sibyl-DQN"},
        {"Double DQN", "Sibyl-DQN{doubleDqn=1}"},
        {"DQN + PER", "Sibyl-DQN{per=1}"},
        {"Q-table", "Sibyl-QTable"}, // tabular updates: lr preset 0.2
    };

    scenario::ScenarioSpec s;
    s.name = "ablation_agent";
    for (const auto &fam : families)
        s.policies.push_back(fam.descriptor);
    s.workloads = {"hm_1", "mds_0", "prxy_1", "rsrch_0", "usr_0",
                   "wdev_2"};
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = bench::requestOverride(0);

    auto specs = s.expand();
    const auto storage = bench::collectPolicyScalar(
        specs, [](policies::PlacementPolicy &p) {
            auto *sibyl = dynamic_cast<core::SibylPolicy *>(&p);
            return sibyl ? static_cast<double>(
                               sibyl->agent().storageBytes())
                         : 0.0;
        });
    sim::ParallelRunner runner;
    const auto records = runner.runAll(specs);

    for (std::size_t ci = 0; ci < s.hssConfigs.size(); ci++) {
        std::printf("\n[%s]\n", s.hssConfigs[ci].c_str());
        TextTable tab;
        tab.header({"agent", "norm. latency (mean of 6 wl)",
                    "policy storage (KiB)"});
        for (std::size_t pi = 0; pi < families.size(); pi++) {
            const double lat = bench::meanOverWorkloads(
                s, records, ci, pi, [](const sim::RunRecord &r) {
                    return r.result.normalizedLatency;
                });
            double kib = 0.0;
            for (std::size_t wi = 0; wi < s.workloads.size(); wi++)
                kib += storage->at(s.recordIndex(ci, wi, pi));
            kib /= static_cast<double>(s.workloads.size()) * 1024.0;
            tab.addRow({families[pi].label, cell(lat, 3), cell(kib, 1)});
        }
        tab.print(std::cout);
    }
    std::printf(
        "\nPaper reference: function approximation generalizes over the\n"
        "state space at a small fixed footprint, while the table grows\n"
        "with every distinct state the workload visits; the C51\n"
        "distributional head matches or beats the scalar DQN.\n");
    return 0;
}
