/**
 * @file
 * Explainability walkthrough (§9): run Sibyl instrumented, then open
 * the black box — extract its fast-device preference, slice it by
 * state feature, watch it evolve over time, and probe which features
 * its decisions actually depend on.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/explainability
 */

#include <cstdio>

#include "explain/instrumented_policy.hh"
#include "explain/saliency.hh"
#include "sim/parallel_runner.hh"
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
    trace::Trace t = trace::makeWorkload(workload);

    // Devices jitter from seed 42, in the run and its Fast-Only
    // normalization baseline alike.
    explain::InstrumentedSibyl policy(core::SibylConfig(),
                                      sim::numHssDevices(hssConfig));
    const auto result = sim::runPolicyExperiment(
        cfg, t, policy, sim::computeFastOnlyBaseline(cfg, t, 42), 42);
    const auto &log = policy.log();

    // 1. Overall preference — the Fig. 17 number.
    std::printf("fast-device preference: %.2f   (norm. latency %.2fx, "
                "evictions %.1f%%)\n",
                log.overallPreference().preference(),
                result.normalizedLatency,
                100.0 * log.evictionFraction());

    // 2. Preference by access count: did Sibyl learn hotness?
    //    Feature 3 (cnt_t) is the page's access-count bin; access
    //    counts concentrate in the low bins, so slice finely and show
    //    the populated slices.
    std::printf("preference by access-count bin (cold -> hot):");
    const auto bins = log.preferenceByFeature(3, 16);
    for (std::size_t b = 0; b < bins.size(); b++) {
        if (bins[b].decisions >= 20)
            std::printf("  [%zu]=%.2f", b, bins[b].preference());
    }
    std::printf("\n");

    // 3. Preference over time: online adaptation at a glance.
    std::printf("preference timeline (5 windows): 	");
    for (const auto &w : log.preferenceTimeline(5))
        std::printf("  %.2f", w.preference());
    std::printf("\n");

    // 4. Saliency: perturb each feature on a sample of visited states
    //    and measure how often the greedy action flips.
    std::vector<ml::Vector> states;
    const std::size_t stride = std::max<std::size_t>(1, log.size() / 64);
    for (std::size_t i = 0; i < log.size(); i += stride)
        states.push_back(log[i].state);
    std::printf("feature saliency (action-flip rate under "
                "perturbation):\n");
    for (const auto &s :
         explain::featureSaliency(policy.sibyl().agent(), states)) {
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
