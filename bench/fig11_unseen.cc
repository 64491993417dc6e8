/**
 * @file
 * Regenerates Fig. 11 (§8.2): performance on *unseen* workloads —
 * FileBench personalities never used to tune any policy's
 * hyper-parameters. Sibyl's online learning should clearly beat the
 * offline-trained ML baselines (Archivist, RNN-HSS) here.
 */

#include "bench_util.hh"

using namespace sibyl;

int
main()
{
    scenario::ScenarioSpec s;
    s.name = "fig11_unseen";
    s.policies = {"Slow-Only", "Archivist", "RNN-HSS", "Sibyl", "Oracle"};
    s.workloads = {"fileserver", "ntrx_rw", "oltp_rw", "varmail"};
    s.hssConfigs = {"H&M", "H&L"};
    s.traceLen = bench::requestOverride();
    bench::runLineup(s, "Fig. 11: average request latency on unseen "
                        "FileBench workloads (normalized to Fast-Only)");
    return 0;
}
