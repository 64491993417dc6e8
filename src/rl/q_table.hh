/**
 * @file
 * Tabular Q-learning agent.
 *
 * The traditional RL baseline the paper argues against (§4.1): a
 * lookup table storing one Q-value per visited (state, action) pair,
 * updated online with the one-step Q-learning rule (Watkins, 1989).
 * The table grows with the number of distinct quantized states the
 * workload visits, which is exactly the storage/computation-overhead
 * argument for function approximation — storageBytes() makes it
 * measurable in the agent-ablation bench.
 */

#pragma once

#include <unordered_map>

#include "rl/agent.hh"

namespace sibyl::rl
{

/** Tabular Q-learning over the quantized observation vector. */
class QTableAgent final : public Agent
{
  public:
    explicit QTableAgent(const AgentConfig &cfg);

    std::string name() const override { return "Q-table"; }

    std::uint32_t selectAction(const ml::Vector &state) override;
    std::uint32_t greedyAction(const ml::Vector &state) override;
    std::vector<double> qValues(const ml::Vector &state) override;

    /** Applies the Q-learning update immediately (no replay). */
    void observe(const ml::Vector &state, std::uint32_t action,
                 float reward, const ml::Vector &nextState) override;

    /** No batch training phase; returns the last TD error. */
    double trainRound() override { return stats_.lastLoss; }

    void setLearningRate(double lr) override { cfg_.learningRate = lr; }

    /** Table entries x (8-byte key + one double per action). */
    std::size_t storageBytes() const override;

    /** Distinct quantized states visited so far. */
    std::size_t tableEntries() const { return table_.size(); }

    /** Full table access (checkpointing). */
    const std::unordered_map<std::uint64_t, std::vector<double>> &
    table() const
    {
        return table_;
    }

    /** Replace the table wholesale (checkpoint restore). */
    void
    restoreTable(
        std::unordered_map<std::uint64_t, std::vector<double>> table)
    {
        table_ = std::move(table);
    }

  private:
    /** Quantize the normalized state into a hashable key. */
    std::uint64_t stateKey(const ml::Vector &state) const;

    /** Q-value row for @p key, default-initialized to zeros. */
    std::vector<double> &row(std::uint64_t key);

    /** The stored Q-values of @p state, or null when unvisited (all
     *  zeros). */
    const double *find(const ml::Vector &state) const;

    /** The stored Q-values of @p state (zeros when unvisited) into
     *  q[0..numActions). */
    void values(const ml::Vector &state, double *q) const;

    std::unordered_map<std::uint64_t, std::vector<double>> table_;
};

} // namespace sibyl::rl
