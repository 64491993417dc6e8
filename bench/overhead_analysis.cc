/**
 * @file
 * Regenerates §10 (overhead analysis) with google-benchmark:
 *
 *  - inference latency: one forward pass of the 6-20-30-|A|x51 network
 *    (the paper counts 780 MACs for its 2-output head and measures
 *    ~10 ns on the host CPU);
 *  - training latency: one training round (8 batches x 128 samples,
 *    ~1.6M MACs in the paper, ~2 us/batch-step on their CPU);
 *  - weight sync: the training->inference copy done every 1000 requests;
 *  - storage accounting: network weights + experience buffer + per-page
 *    metadata (paper: 124.4 KiB DRAM + ~0.1% metadata overhead).
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/sibyl_config.hh"
#include "core/state.hh"
#include "rl/c51_agent.hh"

using namespace sibyl;

namespace
{

rl::C51Config
paperAgentConfig(std::uint32_t actions)
{
    rl::C51Config cfg;
    cfg.stateDim = 6 + (actions > 2 ? actions - 2 : 0);
    cfg.numActions = actions;
    return cfg;
}

void
BM_InferenceForward(benchmark::State &state)
{
    rl::C51Agent agent(
        paperAgentConfig(static_cast<std::uint32_t>(state.range(0))));
    ml::Vector obs(agent.config().stateDim, 0.5f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(agent.inferenceNetwork().forward(obs));
    }
}
BENCHMARK(BM_InferenceForward)->Arg(2)->Arg(3);

void
BM_GreedyActionSelection(benchmark::State &state)
{
    rl::C51Agent agent(paperAgentConfig(2));
    ml::Vector obs(6, 0.5f);
    for (auto _ : state)
        benchmark::DoNotOptimize(agent.greedyAction(obs));
}
BENCHMARK(BM_GreedyActionSelection);

void
BM_TrainingRound(benchmark::State &state)
{
    rl::C51Agent agent(paperAgentConfig(2));
    // Fill the replay buffer with distinct transitions.
    Pcg32 rng(1);
    for (int i = 0; i < 1200; i++) {
        ml::Vector s(6), ns(6);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble());
        for (auto &v : ns)
            v = static_cast<float>(rng.nextDouble());
        const std::uint32_t action = rng.nextBounded(2);
        agent.observe(s, action, static_cast<float>(rng.nextDouble()), ns);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(agent.trainRound());
}
BENCHMARK(BM_TrainingRound)->Unit(benchmark::kMicrosecond);

void
BM_WeightSync(benchmark::State &state)
{
    rl::C51Agent agent(paperAgentConfig(2));
    for (auto _ : state)
        agent.syncWeights();
}
BENCHMARK(BM_WeightSync);

void
BM_StateEncoding(benchmark::State &state)
{
    core::FeatureConfig fc;
    core::StateEncoder enc(fc, 2);
    auto specs = hss::makeHssConfig("H&M", 10000);
    hss::HybridSystem sys(specs);
    trace::Request req{0.0, 42, 4, OpType::Read};
    for (auto _ : state)
        benchmark::DoNotOptimize(enc.encode(sys, req));
}
BENCHMARK(BM_StateEncoding);

void
printStorageAccounting()
{
    std::printf("=== §10.2 storage accounting ===\n");
    rl::C51Agent agent(paperAgentConfig(2));
    std::size_t params = agent.inferenceNetwork().paramCount();
    // The paper stores fp16 weights; it counts only the 780 weight
    // parameters of its simplified 2-output head.
    double weightsPaperKiB = 780.0 * 2.0 / 1024.0;
    double netKiB = static_cast<double>(params) * 2.0 / 1024.0;
    std::printf("paper network head (780 weights, fp16): %.1f KiB x 2 "
                "networks = %.1f KiB\n",
                weightsPaperKiB, 2 * weightsPaperKiB);
    std::printf("full C51 network in this repo: %zu params -> %.1f KiB "
                "(fp16) per network\n",
                params, netKiB);

    // Experience buffer: 1000 entries x (40+4+16+40 bits) = 100 KiB in
    // the paper's encoding.
    double entryBits = core::StateEncoder::kEncodedBits + 4 + 16 +
                       core::StateEncoder::kEncodedBits;
    double bufKiB = 1000.0 * entryBits / 8.0 / 1024.0;
    std::printf("experience buffer: 1000 x %.0f bits = %.1f KiB\n",
                entryBits, bufKiB);
    std::printf("paper total: 2 x 12.2 KiB networks + 100 KiB buffer = "
                "124.4 KiB DRAM\n");

    // Metadata: 40 bits per 4 KiB page -> ~0.12% of capacity.
    double metaPct = (core::StateEncoder::kEncodedBits / 8.0) /
                     static_cast<double>(kPageSize) * 100.0;
    std::printf("per-page metadata: 5 B / 4 KiB page = %.2f%% of storage "
                "capacity\n\n",
                metaPct);

    std::printf("=== §10.1 MAC counts ===\n");
    // Paper head: 6x20 + 20x30 + 30x2 = 780 MACs per inference.
    std::printf("inference (paper 2-output head): %d MACs\n",
                6 * 20 + 20 * 30 + 30 * 2);
    std::printf("training step (batch 128): %d MACs x 8 batches\n",
                128 * (6 * 20 + 20 * 30 + 30 * 2));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("==============================================================\n");
    std::printf("§10: Sibyl overhead analysis (latency + storage)\n");
    std::printf("==============================================================\n");
    printStorageAccounting();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
