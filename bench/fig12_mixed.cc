/**
 * @file
 * Regenerates Fig. 12 (§8.3): mixed workloads (Table 5) with randomly
 * varied relative start times. Two Sibyl settings are compared:
 * Sibyl_Def (default hyper-parameters) and Sibyl_Opt (lower learning
 * rate, tuned for the mixed scenario).
 */

#include "bench_util.hh"
#include "scenario/json.hh"

using namespace sibyl;

int
main()
{
    // Sibyl_Def and Sibyl_Opt differ only in the learning rate: the
    // optimized variant uses a 10x lower alpha (§8.3), making smaller,
    // more stable updates under the unpredictable mixed request stream.
    scenario::ScenarioSpec s;
    s.name = "fig12_mixed";
    s.policies = {"Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS",
                  "Sibyl_Def", "Oracle"};
    s.workloads = trace::mixedWorkloadNames();
    s.hssConfigs = {"H&M", "H&L"};
    s.mixedWorkloads = true;
    s.traceLen = bench::requestOverride();
    bench::runLineup(s, "Fig. 12: average request latency on mixed "
                        "workloads (Table 5), normalized to Fast-Only");

    // %.17g round-trips the double exactly, so the agent sees the same
    // learning rate as default/10 computed in place.
    scenario::ScenarioSpec opt = s;
    opt.policies = {"Sibyl_Opt"};
    opt.sibylParams["learningRate"] =
        scenario::jsonNumber(core::SibylConfig().learningRate / 10.0);
    bench::runLineup(opt, "Fig. 12 (cont.): Sibyl_Opt — "
                          "mixed-workload-tuned hyper-parameters "
                          "(alpha = default/10)");
    return 0;
}
