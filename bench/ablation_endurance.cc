/**
 * @file
 * Endurance-aware reward extension (§11, "Adding more features and
 * optimization objectives": "to optimize for endurance, one might use
 * the number of writes to an endurance-critical device in the reward
 * function").
 *
 * Sweeps the endurance penalty weight — one Sibyl{reward=endurance,
 * enduranceWeight=w} descriptor per point — and reports the
 * trade-off: as the weight grows, Sibyl routes write traffic away
 * from the endurance-critical fast device (fewer pages written there,
 * at some latency cost).
 *
 * A second phase runs the same question against the mechanistic wear
 * model: the capacity-restricted flash middle tier of H&M&L gets the
 * detailed FTL with a rated P/E budget and static wear leveling, and
 * the bench reports write amplification, wear imbalance, life
 * consumed, and retired blocks per policy. Both phases land in
 * BENCH_endurance.json for regression tracking; SIBYL_BENCH_REQUESTS
 * shrinks them for CI.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

using namespace sibyl;

int
main()
{
    bench::banner("Endurance extension (§11): write traffic to the "
                  "endurance-critical fast device vs penalty weight, "
                  "H&M");

    const std::vector<double> weights = {0.0, 0.01, 0.05, 0.2, 1.0};

    scenario::ScenarioSpec s;
    s.name = "ablation_endurance";
    for (double w : weights) {
        if (w == 0.0) {
            s.policies.push_back("Sibyl"); // Eq. (1) control
        } else {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "Sibyl{reward=endurance,enduranceWeight=%g,"
                          "enduranceCriticalDevice=0}",
                          w);
            s.policies.push_back(buf);
        }
    }
    // Write-heavy workloads, where endurance pressure is real.
    s.workloads = {"mds_0", "prxy_0", "rsrch_0", "wdev_2"};
    s.hssConfigs = {"H&M"};
    s.traceLen = bench::requestOverride(0);

    sim::ParallelRunner runner;
    const auto records = runner.runAll(s.expand());

    bench::BenchJson json("ablation_endurance");

    TextTable tab;
    tab.header({"endurance weight", "norm. latency",
                "fast-device pages written (mean)", "fast preference"});
    for (std::size_t pi = 0; pi < weights.size(); pi++) {
        auto mean = [&](auto get) {
            return bench::meanOverWorkloads(s, records, 0, pi, get);
        };
        const double lat = mean([](const sim::RunRecord &r) {
            return r.result.normalizedLatency;
        });
        const double fastWrites = mean([](const sim::RunRecord &r) {
            return static_cast<double>(r.result.devicePagesWritten.at(0));
        });
        tab.addRow(
            {cell(weights[pi], 2), cell(lat, 3), cell(fastWrites, 0),
             cell(mean([](const sim::RunRecord &r) {
                      return r.result.metrics.fastPlacementPreference;
                  }),
                  3)});
        char key[64];
        std::snprintf(key, sizeof(key), "w%g_normLatency", weights[pi]);
        json.add(key, lat);
        std::snprintf(key, sizeof(key), "w%g_fastWrites", weights[pi]);
        json.add(key, fastWrites);
    }
    tab.print(std::cout);
    std::printf(
        "\nExpected shape: monotically falling write traffic to the\n"
        "critical device as the weight grows, bought with rising\n"
        "normalized latency — the endurance/performance trade-off the\n"
        "paper's reward flexibility enables.\n");

    // ---- Phase 2: mechanistic wear (detailed FTL on the flash tier).
    bench::banner("Wear realism: WA / imbalance / life consumed vs "
                  "policy, H&M&L flash tier with rated P/E + wear "
                  "leveling");

    scenario::ScenarioSpec e;
    e.name = "ablation_endurance_wear";
    e.policies = {"CDE", "Sibyl",
                  "Sibyl{reward=endurance,enduranceCriticalDevice=1,"
                  "wearFeatures=1}"};
    const std::vector<std::string> labels = {"cde", "sibyl",
                                             "sibyl_endurance"};
    e.workloads = {"prxy_0"};
    e.hssConfigs = {"H&M&L"};
    e.traceLen = bench::requestOverride(0);
    scenario::DeviceOverride ov;
    ov.device = 1; // the capacity-restricted flash tier that churns
    ov.detailedFtl = 1;
    ov.ftlPagesPerBlock = 8;
    ov.ftlRatedPeCycles = 64;
    ov.ftlWearLevelSpread = 8;
    ov.drainPagesPerMs = 64.0;
    e.deviceOverrides = {ov};

    const auto wearRecords = runner.runAll(e.expand());

    bool ok = true;
    TextTable wtab;
    wtab.header({"policy", "WA", "wear imbalance", "life consumed",
                 "retired blocks"});
    for (std::size_t pi = 0; pi < e.policies.size(); pi++) {
        const auto &m =
            wearRecords.at(e.recordIndex(0, 0, pi)).result.metrics;
        // Contract: a detailed-FTL run must surface the endurance
        // block, and WA is host-write-relative, never below 1.
        ok &= m.enduranceConfigured && m.writeAmplification >= 1.0 &&
              m.wearImbalance >= 1.0;
        wtab.addRow({labels[pi], cell(m.writeAmplification, 3),
                     cell(m.wearImbalance, 3), cell(m.lifeConsumed, 3),
                     cell(static_cast<double>(m.retiredBlocks), 0)});
        json.add(labels[pi] + "_writeAmplification",
                 m.writeAmplification);
        json.add(labels[pi] + "_wearImbalance", m.wearImbalance);
        json.add(labels[pi] + "_lifeConsumed", m.lifeConsumed);
        json.add(labels[pi] + "_retiredBlocks",
                 static_cast<double>(m.retiredBlocks));
    }
    wtab.print(std::cout);
    std::printf(
        "\nExpected shape: the endurance-aware agent trades latency for\n"
        "a flatter erase distribution — lower life consumed and fewer\n"
        "retired blocks on the flash tier than the latency-only arms.\n");

    json.writeTo("BENCH_endurance.json");
    if (!ok) {
        std::fprintf(stderr, "FAIL: endurance metrics missing or out of "
                             "range on a detailed-FTL run\n");
        return 1;
    }
    return 0;
}
