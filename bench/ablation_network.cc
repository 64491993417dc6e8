/**
 * @file
 * Network-topology design-space exploration (§6.2.2: "We select these
 * neurons based on our extensive design space exploration with
 * different numbers of hidden layers and neurons per layer").
 *
 * Sweeps hidden-layer configurations around the paper's 20x30 choice
 * — one Sibyl{hidden=...} descriptor per topology — and reports
 * performance, parameter count, and per-inference MAC operations:
 * bigger networks do not buy placement quality, they only cost
 * inference latency and storage.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/sibyl_policy.hh"
#include "rl/agent.hh"

using namespace sibyl;

namespace
{

/** MACs for one inference through `in -> hidden... -> out`. */
std::uint64_t
inferenceMacs(std::uint32_t in, const std::vector<std::size_t> &hidden,
              std::uint32_t out)
{
    std::uint64_t macs = 0;
    std::size_t prev = in;
    for (std::size_t h : hidden) {
        macs += prev * h;
        prev = h;
    }
    macs += prev * out;
    return macs;
}

} // namespace

int
main()
{
    bench::banner("Network-topology DSE (§6.2.2): hidden layers vs "
                  "performance and inference cost, H&M");

    struct Topology
    {
        const char *label;
        const char *hidden; // Sibyl{hidden=...} value
        std::vector<std::size_t> layers;
    };
    const std::vector<Topology> topologies = {
        {"10", "10", {10}},
        {"20", "20", {20}},
        {"20x30 (paper)", "20x30", {20, 30}},
        {"40x60", "40x60", {40, 60}},
        {"64x64x64", "64x64x64", {64, 64, 64}},
    };

    scenario::ScenarioSpec s;
    s.name = "ablation_network";
    for (const auto &topo : topologies)
        s.policies.push_back(std::string("Sibyl{hidden=") + topo.hidden +
                             "}");
    s.workloads = {"hm_1", "mds_0", "prxy_1", "rsrch_0", "usr_0",
                   "wdev_2"};
    s.hssConfigs = {"H&M"};
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

    TextTable tab;
    tab.header({"hidden layers", "norm. latency (mean of 6 wl)",
                "MACs/inference", "storage (KiB)"});
    for (std::size_t pi = 0; pi < topologies.size(); pi++) {
        const double lat = bench::meanOverWorkloads(
            s, records, 0, pi, [](const sim::RunRecord &r) {
                return r.result.normalizedLatency;
            });
        const std::uint64_t macs = inferenceMacs(
            6, topologies[pi].layers, 2 * 51); // 6 features, 2x51 head
        // The agent's footprint depends only on the topology; any
        // run's value is representative.
        const double kib =
            storage->at(s.recordIndex(0, 0, pi)) / 1024.0;
        tab.addRow({topologies[pi].label, cell(lat, 3), cell(macs),
                    cell(kib, 1)});
    }
    tab.print(std::cout);
    std::printf(
        "\nPaper reference: the 20x30 topology is at the knee — larger\n"
        "networks add MACs and storage without improving placement\n"
        "(the paper's DSE conclusion); a single tiny layer gives up\n"
        "some quality on the harder workloads.\n");
    return 0;
}
