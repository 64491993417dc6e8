/**
 * @file
 * Exploration-strategy ablation (§6.2.1 "Exploration vs. exploitation"
 * and Fig. 14(c)).
 *
 * The paper fixes a constant epsilon-greedy policy at eps = 0.001 and
 * shows (Fig. 14(c)) that too-frequent exploration (eps = 0.1) hurts
 * sharply. This bench extends that sweep across strategy *families*:
 * the paper's constant epsilon against linearly and exponentially
 * annealed epsilon (explore early / exploit late) and Boltzmann
 * (softmax) action sampling, which Tokic & Palm [134] compare
 * epsilon-greedy to. The online-learning setting has no episode reset,
 * so annealing must front-load its exploration into the warmup
 * phase — the steady-state column shows whether that pays off.
 *
 * Each strategy is one Sibyl{explore=...} descriptor run through the
 * scenario layer.
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
    bench::banner("Exploration ablation (§6.2.1, extends Fig. 14(c)): "
                  "constant vs decaying epsilon vs Boltzmann");

    struct Strategy
    {
        const char *label;
        const char *descriptor;
    };
    const std::vector<Strategy> strategies = {
        {"constant eps=0.001 (paper)", "Sibyl"},
        {"constant eps=0.1 (Fig14c worst)", "Sibyl{epsilon=0.1}"},
        {"linear 0.5->0.001 @5k",
         "Sibyl{explore=linear,epsilonStart=0.5,epsilon=0.001,"
         "decaySteps=5000}"},
        {"exp 0.5->0.001 hl=1k",
         "Sibyl{explore=exp,epsilonStart=0.5,epsilon=0.001,"
         "halfLifeSteps=1000}"},
        {"boltzmann T=0.02", "Sibyl{explore=boltzmann,temperature=0.02}"},
        {"boltzmann T=0.5", "Sibyl{explore=boltzmann,temperature=0.5}"},
        {"VDBE sigma=0.5 [134]",
         "Sibyl{explore=vdbe,epsilonStart=0.5,epsilon=0.001,"
         "vdbeSigma=0.5}"},
    };

    scenario::ScenarioSpec s;
    s.name = "ablation_exploration";
    for (const auto &strat : strategies)
        s.policies.push_back(strat.descriptor);
    s.workloads = {"hm_1", "mds_0", "prxy_1", "rsrch_0", "usr_0",
                   "wdev_2"};
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = bench::requestOverride(0);

    auto specs = s.expand();
    const auto randomPct = bench::collectPolicyScalar(
        specs, [](policies::PlacementPolicy &p) {
            auto *sibyl = dynamic_cast<core::SibylPolicy *>(&p);
            if (!sibyl)
                return 0.0;
            const auto &st = sibyl->agent().stats();
            return st.decisions
                ? 100.0 * static_cast<double>(st.randomActions) /
                      static_cast<double>(st.decisions)
                : 0.0;
        });
    sim::ParallelRunner runner;
    const auto records = runner.runAll(specs);

    for (std::size_t ci = 0; ci < s.hssConfigs.size(); ci++) {
        std::printf("\n[%s]\n", s.hssConfigs[ci].c_str());
        TextTable tab;
        tab.header({"strategy", "norm. latency (mean of 6 wl)",
                    "steady-state norm. latency", "random action %"});
        for (std::size_t pi = 0; pi < strategies.size(); pi++) {
            auto mean = [&](auto get) {
                return bench::meanOverWorkloads(s, records, ci, pi, get);
            };
            double rnd = 0.0;
            for (std::size_t wi = 0; wi < s.workloads.size(); wi++)
                rnd += randomPct->at(s.recordIndex(ci, wi, pi));
            rnd /= static_cast<double>(s.workloads.size());
            tab.addRow(
                {strategies[pi].label,
                 cell(mean([](const sim::RunRecord &r) {
                          return r.result.normalizedLatency;
                      }),
                      3),
                 cell(mean([](const sim::RunRecord &r) {
                          return r.result.normalizedSteadyLatency;
                      }),
                      3),
                 cell(rnd, 2)});
        }
        tab.print(std::cout);
    }
    std::printf(
        "\nExpected shape: the paper's small constant epsilon and the\n"
        "annealed schedules land close together; eps=0.1 is clearly\n"
        "worst (Fig. 14(c)); a cold Boltzmann policy (low T) tracks\n"
        "greedy selection while a hot one over-explores like eps=0.1;\n"
        "VDBE self-anneals to the constant-epsilon plateau without a\n"
        "hand-tuned horizon (the adaptive control of citation [134]).\n");
    return 0;
}
