/**
 * @file
 * Extensibility scenario beyond the paper: a quad-hybrid storage
 * system with all four Table 3 devices (H > M > L_SSD > L).
 *
 * §8.7 shows that going from two to three devices costs Sibyl one
 * action and one capacity feature. This example repeats the exercise
 * for a fourth device: the Sibyl construction below is *identical* to
 * the dual- and tri-hybrid ones — only numDevices changes. The
 * heuristic side, by contrast, needs a full hand-chosen threshold
 * ladder (hot/warm/cold/frozen), and mis-tuning any rung costs real
 * performance; the second heuristic row demonstrates that with a
 * deliberately plausible-but-wrong ladder.
 */

#include <cstdio>

#include "core/sibyl_policy.hh"
#include "policies/tri_heuristic.hh"
#include "sim/parallel_runner.hh"
#include "trace/workloads.hh"

using namespace sibyl;

namespace
{

void
report(const sim::PolicyResult &r, const char *label)
{
    std::printf("  %-26s %10.1f us (%.2fx Fast-Only), "
                "placements %llu/%llu/%llu/%llu\n",
                label, r.metrics.avgLatencyUs, r.normalizedLatency,
                static_cast<unsigned long long>(r.metrics.placements[0]),
                static_cast<unsigned long long>(r.metrics.placements[1]),
                static_cast<unsigned long long>(r.metrics.placements[2]),
                static_cast<unsigned long long>(r.metrics.placements[3]));
}

} // namespace

int
main()
{
    trace::Trace workload = trace::makeWorkload("usr_0", 20000);

    sim::RunSpec cfg;
    cfg.hssConfig = "H&M&L_SSD&L";
    cfg.fastCapacityFrac = 0.05; // H holds 5%, M 10%, L_SSD 20% of WSS
    const std::uint32_t numDevices =
        sim::numHssDevices(cfg.hssConfig, cfg.fastCapacityFrac);
    // Fast-Only normalization baseline; devices jitter from seed 42.
    const auto fastOnly = sim::computeFastOnlyBaseline(cfg, workload, 42);
    auto run = [&](policies::PlacementPolicy &policy) {
        return sim::runPolicyExperiment(cfg, workload, policy, fastOnly, 42);
    };

    std::printf("[H&M&L_SSD&L] %s — 4 devices, 4 actions\n",
                workload.name().c_str());

    // A reasonably tuned four-band ladder: >=16 accesses -> H,
    // >=4 -> M, >=1 -> L_SSD, never-seen pages -> L.
    policies::MultiTierHeuristicPolicy tuned({16, 4, 1});
    report(run(tuned), "heuristic (tuned bands)");

    // The same heuristic with a plausible but mis-tuned ladder — the
    // kind of guess a designer makes before measuring.
    policies::MultiTierHeuristicPolicy mistuned({256, 64, 16});
    report(run(mistuned), "heuristic (mis-tuned bands)");

    // Sibyl: the same construction as for 2 or 3 devices. The action
    // space and the per-tier capacity features grow automatically.
    core::SibylConfig scfg;
    core::SibylPolicy sibyl(scfg, numDevices);
    std::printf("  (Sibyl state dim %u, actions %u)\n",
                sibyl.encoder().dimension(), numDevices);
    report(run(sibyl), "Sibyl (unchanged code)");

    std::printf("\nEvery added tier costs the heuristic another "
                "hand-tuned threshold;\nSibyl only grows its action "
                "space and keeps learning online.\n");
    return 0;
}
