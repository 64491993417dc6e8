/**
 * @file
 * Plain (non-distributional) Deep Q-Network head and agent.
 *
 * Ablation counterpart to Sibyl's C51 (§6.2.1: "C51's objective is to
 * learn the distribution of Q-values, whereas other variants of Deep
 * Q-Networks aim to approximate a single value"). The agent is the
 * shared ValueAgent with the same topology and dual-network
 * arrangement; only the head differs: it emits one scalar Q-value per
 * action, trained with an MSE temporal-difference loss (optionally
 * with the Double-DQN target). The agent-ablation bench quantifies
 * what the distributional head buys.
 */

#pragma once

#include "rl/value_agent.hh"

namespace sibyl::rl
{

/** Scalar Q-value head: max (or Double-DQN select/evaluate) Bellman
 *  target, MSE loss, |TD error| priorities. */
class DqnHead final : public ValueHead
{
  public:
    explicit DqnHead(const AgentConfig &cfg);

    std::string name() const override { return "DQN"; }
    FamilyTag family() const override { return FamilyTag::Dqn; }
    Salts salts() const override { return {0xD62, 0x1219, 0x121A}; }
    std::size_t outputWidth() const override { return numActions_; }
    std::size_t targetWidth() const override { return 1; }
    bool selectsWithTrainingNet() const override { return doubleDqn_; }

    std::uint32_t greedy(const float *row, std::uint32_t mask,
                         bool restricted) override;
    void
    values(const float *row, double *q) override
    {
        for (std::uint32_t a = 0; a < numActions_; a++)
            q[a] = row[a];
    }
    void target(const float *eval, const float *sel, const float *rewards,
                std::size_t rows, float *out) override;
    void loss(const LossBatch &b) override;
    double valueDelta(double loss, double prevLoss) const override;

  private:
    std::uint32_t numActions_;
    float gamma_;
    bool doubleDqn_;
};

/** The plain-DQN agent (uses the shared AgentConfig). */
class DqnAgent final : public ValueAgent
{
  public:
    explicit DqnAgent(const AgentConfig &cfg);
};

} // namespace sibyl::rl
