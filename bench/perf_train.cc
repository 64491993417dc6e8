/**
 * @file
 * Training-engine microbenchmark: train-round throughput of the
 * batched GEMM path vs. the legacy per-sample path for the DQN and
 * C51 agents at batchSize in {8, 32, 128}, with uniform and
 * prioritized (sum-tree) replay. Prints a table of gradient steps per
 * second and the batched/per-sample speedup, then a table of GEMM
 * kernel throughput (GMAC/s) on the C51 agent's own layer shapes, and
 * emits the same numbers to BENCH_train.json for regression tracking.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "ml/matrix.hh"
#include "rl/c51_agent.hh"
#include "rl/dqn_agent.hh"

using namespace sibyl;

namespace
{

/** Fill the agent's replay buffer with random transitions without
 *  triggering its automatic training cadence. */
template <typename AgentT>
void
fillBuffer(AgentT &agent, const rl::AgentConfig &cfg)
{
    Pcg32 data(0xBE9C);
    for (std::size_t i = 0; i < cfg.bufferCapacity; i++) {
        rl::Experience e;
        e.state.resize(cfg.stateDim);
        e.nextState.resize(cfg.stateDim);
        for (auto &v : e.state)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        for (auto &v : e.nextState)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        e.action = data.nextBounded(cfg.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        agent.observe(std::move(e));
    }
}

/** Gradient steps per second over one timed window. */
template <typename AgentT>
double
measureWindow(AgentT &agent, const rl::AgentConfig &cfg, double minSeconds)
{
    using Clock = std::chrono::steady_clock;
    std::size_t rounds = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        agent.trainRound();
        rounds++;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < minSeconds);
    const double steps = static_cast<double>(rounds) *
                         cfg.batchesPerTraining * cfg.batchSize;
    return steps / elapsed;
}

/**
 * Throughputs of the per-sample and batched paths for one config.
 * The two agents' measurement windows are interleaved and the best
 * window of each is reported: best-of-N measures the machine's
 * capability rather than transient neighbor load, and interleaving
 * applies any drift to both paths instead of biasing whichever
 * happened to run second.
 */
template <typename AgentT>
std::pair<double, double>
stepsPerSec(rl::AgentConfig cfg)
{
    cfg.trainEvery = 100 * cfg.bufferCapacity; // no auto-training
    cfg.targetSyncEvery = 100 * cfg.bufferCapacity;

    rl::AgentConfig scalarCfg = cfg;
    scalarCfg.batchedTraining = false;
    cfg.batchedTraining = true;

    AgentT scalar(scalarCfg);
    AgentT batched(cfg);
    fillBuffer(scalar, scalarCfg);
    fillBuffer(batched, cfg);
    scalar.trainRound(); // warm up scratch buffers and caches
    batched.trainRound();

    constexpr int kTrials = 5;
    const double window = 0.1;
    std::array<double, kTrials> s{}, b{};
    for (int t = 0; t < kTrials; t++) {
        s[t] = measureWindow(scalar, scalarCfg, window);
        b[t] = measureWindow(batched, cfg, window);
    }
    return {*std::max_element(s.begin(), s.end()),
            *std::max_element(b.begin(), b.end())};
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
fmt2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

ml::Matrix
randomMatrix(std::size_t rows, std::size_t cols, Pcg32 &rng)
{
    ml::Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); i++)
        m.data()[i] = static_cast<float>(rng.nextDouble(-1.0, 1.0));
    return m;
}

/**
 * GMAC/s of one GEMM call on fixed operands: best of five windows of
 * at least 20 ms each, repeating the call into the same output.
 */
template <typename Gemm>
double
gmacPerSec(std::size_t macs, Gemm &&gemm)
{
    using Clock = std::chrono::steady_clock;
    gemm(); // warm up caches
    double best = 0.0;
    for (int t = 0; t < 5; t++) {
        std::size_t calls = 0;
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            gemm();
            calls++;
            elapsed = std::chrono::duration<double>(Clock::now() - start)
                          .count();
        } while (elapsed < 0.02);
        best = std::max(best, static_cast<double>(calls * macs) / elapsed);
    }
    return best / 1e9;
}

/**
 * Kernel section: the three GEMMs of a batched dense layer, timed on
 * the default C51 agent's layers (stateDim -> hidden -> actions x
 * atoms) at minibatch-sized row counts. forward is
 * preAct += in * W^T and gradIn = delta * W (both Matrix::matmulAdd);
 * gradW += delta^T * in is Matrix::transposedMatmulAdd. The first
 * layer has no gradIn: the network never propagates into its input.
 */
void
kernelSection(bench::BenchJson &json)
{
    const rl::AgentConfig cfg;
    std::vector<std::size_t> widths = {cfg.stateDim};
    widths.insert(widths.end(), cfg.hidden.begin(), cfg.hidden.end());
    widths.push_back(std::size_t{cfg.numActions} * cfg.atoms);

    TextTable tab;
    tab.header({"rows", "layer", "forward GMAC/s", "gradIn GMAC/s",
                "gradW GMAC/s"});
    Pcg32 rng(0x6E33);
    for (const std::size_t rows : {32, 96, 128}) {
        for (std::size_t l = 0; l + 1 < widths.size(); l++) {
            const std::size_t in = widths[l], out = widths[l + 1];
            const ml::Matrix x = randomMatrix(rows, in, rng);
            const ml::Matrix w = randomMatrix(out, in, rng);
            const ml::Matrix wT = randomMatrix(in, out, rng);
            const ml::Matrix delta = randomMatrix(rows, out, rng);
            ml::Matrix preAct = randomMatrix(rows, out, rng);
            ml::Matrix gradW = randomMatrix(out, in, rng);
            ml::Matrix gradIn;
            const std::size_t macs = rows * in * out;

            const double fwd = gmacPerSec(
                macs, [&] { x.matmulAdd(wT, preAct); });
            const double gw = gmacPerSec(
                macs, [&] { delta.transposedMatmulAdd(x, gradW, 1.0f); });
            const double gi =
                l == 0 ? 0.0
                       : gmacPerSec(macs, [&] { delta.matmul(w, gradIn); });

            const std::string layer =
                std::to_string(in) + "x" + std::to_string(out);
            tab.addRow({std::to_string(rows), layer, fmt2(fwd),
                        l == 0 ? "-" : fmt2(gi), fmt2(gw)});
            const std::string base =
                "_r" + std::to_string(rows) + "_" + layer + "_gmac_per_sec";
            json.add("kernel_forward" + base, fwd);
            if (l != 0)
                json.add("kernel_gradin" + base, gi);
            json.add("kernel_gradw" + base, gw);
        }
    }
    std::printf("\nGEMM kernels on the C51 agent's layer shapes "
                "(best of 5 windows):\n");
    tab.print(std::cout);
}

} // namespace

int
main()
{
    bench::banner("perf_train: train-round throughput, batched GEMM "
                  "engine vs. per-sample baseline (gradient steps/sec)");

    bench::BenchJson json("perf_train");
    TextTable tab;
    tab.header({"agent", "replay", "batch", "per-sample steps/s",
                "batched steps/s", "speedup"});

    const std::uint32_t batchSizes[] = {8, 32, 128};
    for (bool prioritized : {false, true}) {
        for (std::uint32_t bs : batchSizes) {
            rl::AgentConfig cfg;
            cfg.batchSize = bs;
            cfg.batchesPerTraining = 4;
            cfg.prioritizedReplay = prioritized;
            const char *replay = prioritized ? "PER" : "uniform";

            const auto [dqnScalar, dqnBatched] =
                stepsPerSec<rl::DqnAgent>(cfg);
            tab.addRow({"DQN", replay, std::to_string(bs),
                        fmt(dqnScalar), fmt(dqnBatched),
                        fmt2(dqnBatched / dqnScalar)});
            const std::string base = std::string("dqn_") + replay + "_b" +
                                     std::to_string(bs);
            json.add(base + "_per_sample_steps_per_sec", dqnScalar);
            json.add(base + "_batched_steps_per_sec", dqnBatched);
            json.add(base + "_speedup", dqnBatched / dqnScalar);

            const auto [c51Scalar, c51Batched] =
                stepsPerSec<rl::C51Agent>(cfg);
            tab.addRow({"C51", replay, std::to_string(bs),
                        fmt(c51Scalar), fmt(c51Batched),
                        fmt2(c51Batched / c51Scalar)});
            const std::string cbase = std::string("c51_") + replay + "_b" +
                                      std::to_string(bs);
            json.add(cbase + "_per_sample_steps_per_sec", c51Scalar);
            json.add(cbase + "_batched_steps_per_sec", c51Batched);
            json.add(cbase + "_speedup", c51Batched / c51Scalar);
        }
    }

    tab.print(std::cout);
    kernelSection(json);
    if (json.writeTo("BENCH_train.json"))
        std::printf("\nwrote BENCH_train.json\n");
    else
        std::printf("\nWARNING: could not write BENCH_train.json\n");
    return 0;
}
