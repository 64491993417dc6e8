/**
 * @file
 * Tests for agent checkpointing: round trips for every agent family,
 * header validation, corruption handling, and behaviour equivalence
 * after restore.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "rl/c51_agent.hh"
#include "rl/checkpoint.hh"
#include "rl/dqn_agent.hh"
#include "rl/q_table.hh"

namespace sibyl::rl
{
namespace
{

AgentConfig
smallConfig(std::uint64_t seed = 5)
{
    AgentConfig cfg;
    cfg.stateDim = 4;
    cfg.numActions = 2;
    cfg.bufferCapacity = 32;
    cfg.batchSize = 8;
    cfg.batchesPerTraining = 1;
    cfg.trainEvery = 8;
    cfg.targetSyncEvery = 16;
    cfg.learningRate = 1e-2;
    cfg.dedupBuffer = false;
    cfg.seed = seed;
    return cfg;
}

/** Drive some learning so the agents have non-trivial state. */
template <typename AgentT>
void
trainABit(AgentT &agent, int steps = 300)
{
    Pcg32 rng(42);
    for (int i = 0; i < steps; i++) {
        const ml::Vector state = {static_cast<float>(rng.nextDouble()),
                                  static_cast<float>(rng.nextDouble()),
                                  0.5f, 0.5f};
        const auto action = static_cast<std::uint32_t>(i % 2);
        agent.observe(state, action, action == 1 ? 1.0f : 0.0f, state);
    }
}

template <typename AgentT>
void
expectSameQ(AgentT &a, AgentT &b)
{
    Pcg32 rng(7);
    for (int i = 0; i < 20; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble()),
                        static_cast<float>(rng.nextDouble()),
                        static_cast<float>(rng.nextDouble()),
                        static_cast<float>(rng.nextDouble())};
        const auto qa = a.qValues(s);
        const auto qb = b.qValues(s);
        ASSERT_EQ(qa.size(), qb.size());
        for (std::size_t k = 0; k < qa.size(); k++)
            EXPECT_FLOAT_EQ(static_cast<float>(qa[k]),
                            static_cast<float>(qb[k]));
    }
}

TEST(Checkpoint, C51RoundTripPreservesQValues)
{
    C51Agent trained(smallConfig(1));
    trainABit(trained);
    trained.syncWeights();

    std::stringstream buf;
    saveCheckpoint(trained, buf);

    C51Agent fresh(smallConfig(2)); // different init seed
    EXPECT_EQ(loadCheckpoint(fresh, buf), "");
    expectSameQ(trained, fresh);
}

TEST(Checkpoint, DqnRoundTripPreservesQValues)
{
    DqnAgent trained(smallConfig(1));
    trainABit(trained);
    trained.syncWeights();

    std::stringstream buf;
    saveCheckpoint(trained, buf);

    DqnAgent fresh(smallConfig(9));
    EXPECT_EQ(loadCheckpoint(fresh, buf), "");
    expectSameQ(trained, fresh);
}

TEST(Checkpoint, QTableRoundTripPreservesTable)
{
    QTableAgent trained(smallConfig(1));
    trainABit(trained);
    ASSERT_GT(trained.tableEntries(), 0u);

    std::stringstream buf;
    saveCheckpoint(trained, buf);

    QTableAgent fresh(smallConfig(1));
    EXPECT_EQ(loadCheckpoint(fresh, buf), "");
    EXPECT_EQ(fresh.tableEntries(), trained.tableEntries());
    expectSameQ(trained, fresh);
}

TEST(Checkpoint, RestoredAgentActsIdentically)
{
    C51Agent trained(smallConfig(1));
    trainABit(trained);
    trained.syncWeights();
    trained.setEpsilon(0.0);

    std::stringstream buf;
    saveCheckpoint(trained, buf);
    C51Agent fresh(smallConfig(3));
    ASSERT_EQ(loadCheckpoint(fresh, buf), "");
    fresh.setEpsilon(0.0);

    Pcg32 rng(11);
    for (int i = 0; i < 50; i++) {
        ml::Vector s = {static_cast<float>(rng.nextDouble()),
                        static_cast<float>(rng.nextDouble()), 0.0f,
                        1.0f};
        EXPECT_EQ(trained.greedyAction(s), fresh.greedyAction(s));
    }
}

TEST(Checkpoint, RejectsWrongFamily)
{
    C51Agent c51(smallConfig());
    std::stringstream buf;
    saveCheckpoint(c51, buf);
    DqnAgent dqn(smallConfig());
    EXPECT_NE(loadCheckpoint(dqn, buf), "");
}

TEST(Checkpoint, RejectsDimensionMismatch)
{
    C51Agent a(smallConfig());
    std::stringstream buf;
    saveCheckpoint(a, buf);
    AgentConfig other = smallConfig();
    other.stateDim = 7;
    C51Agent b(other);
    const auto err = loadCheckpoint(b, buf);
    EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

TEST(Checkpoint, RejectsGarbage)
{
    std::stringstream buf;
    buf << "this is not a checkpoint at all";
    C51Agent a(smallConfig());
    EXPECT_NE(loadCheckpoint(a, buf), "");
}

TEST(Checkpoint, RejectsTruncated)
{
    C51Agent a(smallConfig());
    std::stringstream buf;
    saveCheckpoint(a, buf);
    const std::string full = buf.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    C51Agent b(smallConfig());
    EXPECT_NE(loadCheckpoint(b, cut), "");
}

TEST(Checkpoint, RejectsTopologyMismatch)
{
    AgentConfig big = smallConfig();
    big.hidden = {40, 60};
    C51Agent a(big);
    std::stringstream buf;
    saveCheckpoint(a, buf);
    C51Agent b(smallConfig()); // 20x30
    const auto err = loadCheckpoint(b, buf);
    EXPECT_NE(err.find("topology"), std::string::npos) << err;
}

TEST(Checkpoint, FileRoundTrip)
{
    const std::string path = "/tmp/sibyl_ckpt_test.bin";
    C51Agent trained(smallConfig(1));
    trainABit(trained);
    trained.syncWeights();
    saveCheckpointFile(trained, path);

    C51Agent fresh(smallConfig(4));
    EXPECT_EQ(loadCheckpointFile(fresh, path), "");
    expectSameQ(trained, fresh);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReportsError)
{
    C51Agent a(smallConfig());
    const auto err =
        loadCheckpointFile(a, "/nonexistent/dir/ckpt.bin");
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// -------------------- corruption fuzz (never crash) -------------------
//
// The guardrail restores agents from these bytes mid-run and the CLI
// loads them from user-supplied files, so the contract is absolute:
// any corruption yields a non-empty error string, no crash, and the
// target agent bit-identical to its pre-load state. Bit-identity is
// checked the strong way — re-serializing the victim agent must
// produce the same bytes as before the poisoned load.

/** Serialized state of @p agent, the bit-identity witness. */
template <typename AgentT>
std::string
agentBytes(const AgentT &agent)
{
    std::ostringstream buf(std::ios::binary);
    saveCheckpoint(agent, buf);
    return buf.str();
}

template <typename AgentT>
void
fuzzTruncations(std::uint64_t seed)
{
    AgentT trained(smallConfig(1));
    trainABit(trained);
    const std::string bytes = agentBytes(trained);

    AgentT victim(smallConfig(2));
    trainABit(victim, 120);
    const std::string before = agentBytes(victim);

    Pcg32 rng(seed);
    for (int t = 0; t < 48; t++) {
        const auto cut = static_cast<std::size_t>(rng.nextBounded(
            static_cast<std::uint32_t>(bytes.size())));
        std::istringstream in(bytes.substr(0, cut), std::ios::binary);
        EXPECT_NE(loadCheckpoint(victim, in), "") << "cut=" << cut;
        EXPECT_EQ(agentBytes(victim), before) << "cut=" << cut;
    }
}

template <typename AgentT>
void
fuzzBitFlips(std::uint64_t seed)
{
    AgentT trained(smallConfig(1));
    trainABit(trained);
    const std::string bytes = agentBytes(trained);

    AgentT victim(smallConfig(2));
    trainABit(victim, 120);
    const std::string before = agentBytes(victim);

    Pcg32 rng(seed);
    for (int t = 0; t < 96; t++) {
        std::string bad = bytes;
        const auto pos = static_cast<std::size_t>(rng.nextBounded(
            static_cast<std::uint32_t>(bad.size())));
        bad[pos] = static_cast<char>(
            static_cast<unsigned char>(bad[pos]) ^
            (1u << rng.nextBounded(8)));
        std::istringstream in(bad, std::ios::binary);
        // Every byte of the format is load-bearing (magic, header
        // fields, checksum, payload), so every single-bit flip must
        // surface as an error...
        EXPECT_NE(loadCheckpoint(victim, in), "")
            << "flipped byte " << pos;
        // ...and must never leak half-parsed state into the agent.
        EXPECT_EQ(agentBytes(victim), before) << "flipped byte " << pos;
    }
}

TEST(CheckpointFuzz, C51TruncationsAlwaysErrorAgentUntouched)
{
    fuzzTruncations<C51Agent>(0xC51F00D);
}

TEST(CheckpointFuzz, QTableTruncationsAlwaysErrorAgentUntouched)
{
    fuzzTruncations<QTableAgent>(0x7AB1E);
}

TEST(CheckpointFuzz, C51BitFlipsAlwaysErrorAgentUntouched)
{
    fuzzBitFlips<C51Agent>(0xB17F11B);
}

TEST(CheckpointFuzz, DqnBitFlipsAlwaysErrorAgentUntouched)
{
    fuzzBitFlips<DqnAgent>(0xD06);
}

TEST(CheckpointFuzz, QTableBitFlipsAlwaysErrorAgentUntouched)
{
    fuzzBitFlips<QTableAgent>(0x5EED);
}

TEST(CheckpointFuzz, LyingPayloadSizeDoesNotAllocateTheClaim)
{
    // A corrupted header claiming a near-2^32 payload must fail as a
    // truncation without trying to materialize the claimed size (the
    // loader reads in bounded chunks). The flip also perturbs the
    // stored checksum ordering, but truncation fires first.
    C51Agent trained(smallConfig(1));
    trainABit(trained);
    std::string bytes = agentBytes(trained);
    // Header layout: magic(8) version(4) family(4) stateDim(4)
    // numActions(4) payloadSize(8) checksum(8) payload.
    const std::size_t sizeOff = 8 + 4 + 4 + 4 + 4;
    std::uint64_t lying = (1ull << 32) - 1;
    std::memcpy(&bytes[sizeOff], &lying, sizeof(lying));

    C51Agent victim(smallConfig(2));
    trainABit(victim, 120);
    const std::string before = agentBytes(victim);
    std::istringstream in(bytes, std::ios::binary);
    const auto err = loadCheckpoint(victim, in);
    EXPECT_NE(err.find("truncated checkpoint payload"),
              std::string::npos)
        << err;
    EXPECT_EQ(agentBytes(victim), before);
}

} // namespace
} // namespace sibyl::rl
