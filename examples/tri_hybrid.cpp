/**
 * @file
 * Extensibility scenario (§8.7): moving from a dual- to a tri-hybrid
 * storage system.
 *
 * Extending Sibyl to a third device takes two changes — one more action
 * and one more capacity feature — and both happen automatically when
 * the policy is constructed with numDevices = 3. The heuristic
 * alternative required hand-designed hot/cold/frozen thresholds and
 * explicit promotion/eviction paths between three devices.
 */

#include <cstdio>

#include "core/sibyl_policy.hh"
#include "policies/tri_heuristic.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

using namespace sibyl;

int
main()
{
    trace::Trace workload = trace::makeWorkload("src1_0", 20000);

    for (const char *cfgName : {"H&M&L", "H&M&L_SSD"}) {
        sim::RunSpec cfg;
        cfg.hssConfig = cfgName;
        cfg.fastCapacityFrac = 0.05; // §8.7: H holds 5%, M 10% of WSS
        const std::uint32_t numDevices =
            sim::numHssDevices(cfg.hssConfig, cfg.fastCapacityFrac);
        // Fast-Only normalization baseline; devices jitter from seed 42.
        const auto fastOnly =
            sim::computeFastOnlyBaseline(cfg, workload, 42);
        auto run = [&](policies::PlacementPolicy &policy) {
            return sim::runPolicyExperiment(cfg, workload, policy,
                                            fastOnly, 42);
        };

        // The designer-made tri-hybrid heuristic [76]...
        policies::TriHeuristicPolicy heuristic;
        auto hr = run(heuristic);

        // ...vs Sibyl, extended by just constructing it with 3 devices:
        // the action space grows to {H, M, L} and the observation gains
        // the M device's remaining capacity.
        core::SibylConfig scfg;
        core::SibylPolicy sibyl(scfg, numDevices);
        auto sr = run(sibyl);

        std::printf("[%s] %s\n", cfgName, workload.name().c_str());
        std::printf("  state dim: %u, actions: %u\n",
                    sibyl.encoder().dimension(), numDevices);
        std::printf("  %-22s %10.1f us (%.2fx Fast-Only)\n",
                    hr.policy.c_str(), hr.metrics.avgLatencyUs,
                    hr.normalizedLatency);
        std::printf("  %-22s %10.1f us (%.2fx Fast-Only)\n",
                    sr.policy.c_str(), sr.metrics.avgLatencyUs,
                    sr.normalizedLatency);
        std::printf("  placements H/M/L: heuristic %llu/%llu/%llu, "
                    "sibyl %llu/%llu/%llu\n\n",
                    static_cast<unsigned long long>(hr.metrics.placements[0]),
                    static_cast<unsigned long long>(hr.metrics.placements[1]),
                    static_cast<unsigned long long>(hr.metrics.placements[2]),
                    static_cast<unsigned long long>(sr.metrics.placements[0]),
                    static_cast<unsigned long long>(sr.metrics.placements[1]),
                    static_cast<unsigned long long>(sr.metrics.placements[2]));
    }
    return 0;
}
