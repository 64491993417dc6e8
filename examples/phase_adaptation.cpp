/**
 * @file
 * Online adaptation demo: a workload that changes personality halfway
 * through its execution.
 *
 * The paper's central claim is *adaptivity* — Sibyl "continuously
 * learns from and adapts to the workload" (§1) where static heuristics
 * are tuned once. This example splices a cold/random phase onto a
 * hot/write-heavy phase, runs Sibyl with its per-request placements
 * recorded, and shows its placement preference tracking the phase
 * change, versus CDE whose policy is fixed.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/phase_adaptation
 */

#include <cstdio>

#include "core/sibyl_policy.hh"
#include "policies/cde.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"

using namespace sibyl;

namespace
{

/** Concatenate two traces, shifting the second one's timestamps and
 *  offsetting its addresses into a disjoint region. */
trace::Trace
splice(const trace::Trace &a, const trace::Trace &b)
{
    trace::Trace out("phase(" + a.name() + "->" + b.name() + ")");
    out.reserve(a.size() + b.size());
    SimTime tEnd = 0.0;
    for (const auto &r : a) {
        out.add(r);
        tEnd = std::max(tEnd, r.timestamp);
    }
    const PageId offset = 1ull << 33; // disjoint address region
    for (trace::Request r : b) {
        r.timestamp += tEnd;
        r.page += offset;
        out.add(r);
    }
    return out;
}

} // namespace

int
main()
{
    std::printf("Online adaptation across a workload phase change\n");

    // Phase 1: prxy_0 — hot, small, write-heavy: Sibyl converges to
    // near-total fast placement (Fig. 17 shows ~0.99 preference).
    // Phase 2: proj_2 — cold, large, highly random: aggressive fast
    // placement is not worth the evictions (~0.54 preference).
    trace::Trace phase1 = trace::makeWorkload("prxy_0", 15000);
    trace::Trace phase2 = trace::makeWorkload("proj_2", 15000);
    trace::Trace spliced = splice(phase1, phase2);
    std::printf("spliced workload: %zu requests, %llu unique pages\n",
                spliced.size(),
                static_cast<unsigned long long>(spliced.uniquePages()));

    sim::RunSpec cfg;
    cfg.hssConfig = "H&M";
    // Record every request's placement for the preference timeline.
    cfg.sim.recordPerRequest = true;
    // Fast-Only normalization baseline; devices jitter from seed 42.
    const auto fastOnly = sim::computeFastOnlyBaseline(cfg, spliced, 42);

    core::SibylPolicy sibyl(core::SibylConfig(),
                            sim::numHssDevices(cfg.hssConfig));
    const auto sibylResult =
        sim::runPolicyExperiment(cfg, spliced, sibyl, fastOnly, 42);

    policies::CdePolicy cde;
    const auto cdeResult =
        sim::runPolicyExperiment(cfg, spliced, cde, fastOnly, 42);

    std::printf("\nnormalized avg latency:  Sibyl %.3f   CDE %.3f\n",
                sibylResult.normalizedLatency,
                cdeResult.normalizedLatency);

    // Sibyl's fast-placement preference in ten windows across the run:
    // it should fall after the phase boundary (window 6 onward) as the
    // agent discovers the new phase's pages do not earn fast-device
    // rewards.
    std::printf("\nSibyl preference timeline (10 windows, phase change "
                "at window 6):\n  ");
    const auto &actions = sibylResult.metrics.perRequestAction;
    double fast[10] = {}, placed[10] = {}, timeline[10] = {};
    for (std::size_t i = 0; i < actions.size(); i++) {
        const std::size_t w = i * 10 / actions.size();
        fast[w] += actions[i] == 0 ? 1.0 : 0.0;
        placed[w] += 1.0;
    }
    for (std::size_t w = 0; w < 10; w++) {
        timeline[w] = placed[w] > 0.0 ? fast[w] / placed[w] : 0.0;
        std::printf("%.2f  ", timeline[w]);
    }
    std::printf("\n");

    const double early = (timeline[2] + timeline[3] + timeline[4]) / 3.0;
    const double late = (timeline[7] + timeline[8] + timeline[9]) / 3.0;
    std::printf("\nmean preference before/after the change: %.2f -> "
                "%.2f\n%s\n",
                early, late,
                late < early
                    ? "Sibyl shifted its policy away from the fast "
                      "device for the cold, random phase."
                    : "(preference did not drop; try a longer phase or "
                      "higher learning rate)");
    return 0;
}
