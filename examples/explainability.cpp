/**
 * @file
 * Explainability walkthrough (§9): step a Sibyl run, keeping each
 * decision's observation and placement, then open the black box —
 * extract its fast-device preference, slice it by state feature, watch
 * it evolve over time, and probe which features its decisions actually
 * depend on.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/explainability
 */

#include <algorithm>
#include <cstdio>

#include "core/sibyl_policy.hh"
#include "explain/saliency.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

using namespace sibyl;

namespace
{

const char *const kFeatureNames[] = {"size",  "type", "interval",
                                     "count", "cap",  "curr"};

void
analyze(const char *hssConfig, const std::string &workload)
{
    std::printf("\n=== %s on %s ===\n", workload.c_str(), hssConfig);

    sim::RunSpec cfg;
    cfg.hssConfig = hssConfig;
    cfg.sim.recordPerRequest = true;
    trace::Trace t = trace::makeWorkload(workload);

    // Build the system as the single-run core does (devices jitter from
    // seed 42) and step the run here, encoding the observation Sibyl
    // sees before each request.
    hss::HybridSystem sys(hss::makeHssConfig(cfg.hssConfig, t.uniquePages(),
                                             cfg.fastCapacityFrac),
                          42);
    core::SibylPolicy policy(core::SibylConfig(), sys.numDevices());
    policy.prepare(t, sys);
    sim::RequestStepper stepper(sys, policy, cfg.sim, t.size());
    std::vector<ml::Vector> states;
    for (const auto &req : t) {
        states.push_back(policy.encoder().encode(sys, req));
        stepper.step(req);
    }
    const sim::RunMetrics m = stepper.finish();
    const auto &actions = m.perRequestAction;

    // 1. Overall preference — the Fig. 17 number.
    std::printf("fast-device preference: %.2f   (norm. latency %.2fx, "
                "evictions %.1f%%)\n",
                m.fastPlacementPreference,
                m.avgLatencyUs /
                    sim::computeFastOnlyBaseline(cfg, t, 42).avgLatencyUs,
                100.0 * m.evictionFraction);

    // 2. Preference by access count: did Sibyl learn hotness?
    //    Feature 3 (cnt_t) is the page's access-count bin; access
    //    counts concentrate in the low bins, so slice finely and show
    //    the populated slices.
    std::printf("preference by access-count bin (cold -> hot):");
    double fast[16] = {}, placed[16] = {};
    for (std::size_t i = 0; i < states.size(); i++) {
        const auto b = std::min<std::size_t>(
            15, static_cast<std::size_t>(
                    std::clamp<double>(states[i][3], 0.0, 1.0) * 16.0));
        fast[b] += actions[i] == 0 ? 1.0 : 0.0;
        placed[b] += 1.0;
    }
    for (std::size_t b = 0; b < 16; b++) {
        if (placed[b] >= 20)
            std::printf("  [%zu]=%.2f", b, fast[b] / placed[b]);
    }
    std::printf("\n");

    // 3. Preference over time: online adaptation at a glance.
    std::printf("preference timeline (5 windows): \t");
    double wFast[5] = {}, wPlaced[5] = {};
    for (std::size_t i = 0; i < actions.size(); i++) {
        const std::size_t w = i * 5 / actions.size();
        wFast[w] += actions[i] == 0 ? 1.0 : 0.0;
        wPlaced[w] += 1.0;
    }
    for (std::size_t w = 0; w < 5; w++)
        std::printf("  %.2f", wPlaced[w] > 0.0 ? wFast[w] / wPlaced[w] : 0.0);
    std::printf("\n");

    // 4. Saliency: perturb each feature on a sample of visited states
    //    and measure how often the greedy action flips.
    std::vector<ml::Vector> sample;
    const std::size_t stride = std::max<std::size_t>(1, states.size() / 64);
    for (std::size_t i = 0; i < states.size(); i += stride)
        sample.push_back(states[i]);
    std::printf("feature saliency (action-flip rate under "
                "perturbation):\n");
    for (const auto &s : explain::featureSaliency(policy.agent(), sample)) {
        if (s.feature < 6) {
            std::printf("  %-9s %.2f\n", kFeatureNames[s.feature],
                        s.actionFlipRate);
        }
    }
}

} // namespace

int
main()
{
    std::printf("Sibyl explainability analysis (paper §9)\n");

    // A hot+random workload (prxy_1) vs a cold+sequential one (stg_1):
    // the paper observes Sibyl prefers fast storage for the former and
    // slow for the latter in H&M, and leans fast for most workloads in
    // H&L where the latency gap is enormous.
    analyze("H&M", "prxy_1");
    analyze("H&M", "stg_1");
    analyze("H&L", "prxy_1");
    return 0;
}
