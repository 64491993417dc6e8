/**
 * @file
 * Quickstart: place data with Sibyl on a performance-oriented hybrid
 * storage system and compare it against a heuristic baseline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/sibyl_policy.hh"
#include "policies/cde.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

using namespace sibyl;

int
main()
{
    // 1. Pick a workload. The library ships synthesizers for all
    //    fourteen MSRC workloads of the paper (Table 4).
    trace::Trace workload = trace::makeWorkload("prxy_1", 20000);
    std::printf("workload: %s, %zu requests, %llu unique 4KiB pages\n",
                workload.name().c_str(), workload.size(),
                static_cast<unsigned long long>(workload.uniquePages()));

    // 2. Describe the hybrid storage system: Optane-class fast device
    //    (sized to 10%% of the working set) over a SATA TLC SSD — the
    //    paper's performance-oriented H&M configuration.
    sim::RunSpec cfg;
    cfg.hssConfig = "H&M";
    cfg.fastCapacityFrac = 0.10;

    //    Results are normalized to Fast-Only: the same system with a
    //    fast device that holds the whole working set. The devices'
    //    service-time jitter is seeded with 42.
    const auto fastOnly = sim::computeFastOnlyBaseline(cfg, workload, 42);
    auto run = [&](policies::PlacementPolicy &policy) {
        return sim::runPolicyExperiment(cfg, workload, policy, fastOnly, 42);
    };

    // 3. Run the Sibyl RL agent. It starts with zero knowledge and
    //    learns online from per-request latency rewards.
    core::SibylConfig sibylCfg; // Table 2 defaults
    core::SibylPolicy sibyl(sibylCfg, sim::numHssDevices(cfg.hssConfig));
    auto sibylResult = run(sibyl);

    // 4. Run a heuristic baseline for comparison.
    policies::CdePolicy cde;
    auto cdeResult = run(cde);

    std::printf("\n%-8s %15s %15s %12s\n", "policy", "avg latency", "vs Fast-Only",
                "evictions");
    auto show = [](const sim::PolicyResult &r) {
        std::printf("%-8s %12.1f us %14.2fx %11.1f%%\n",
                    r.policy.c_str(), r.metrics.avgLatencyUs,
                    r.normalizedLatency,
                    100.0 * r.metrics.evictionFraction);
    };
    show(sibylResult);
    show(cdeResult);

    std::printf("\nSibyl placed %.1f%% of requests on the fast device and "
                "synced its networks %llu times.\n",
                100.0 * sibylResult.metrics.fastPlacementPreference,
                static_cast<unsigned long long>(
                    sibyl.agent().stats().weightSyncs));
    return 0;
}
