#include "rl/dqn_agent.hh"

#include <algorithm>
#include <cmath>

namespace sibyl::rl
{

DqnHead::DqnHead(const AgentConfig &cfg)
    : numActions_(cfg.numActions),
      gamma_(static_cast<float>(cfg.gamma)),
      doubleDqn_(cfg.doubleDqn)
{
}

std::uint32_t
DqnHead::greedy(const float *row, std::uint32_t mask, bool restricted)
{
    if (restricted) {
        // First maximum among the allowed actions — the same winner
        // the unmasked argmax picks whenever it is allowed.
        auto best = static_cast<std::uint32_t>(std::countr_zero(mask));
        for (std::uint32_t a = best + 1; a < numActions_; a++)
            if ((mask >> a & 1u) && row[a] > row[best])
                best = a;
        return best;
    }
    return static_cast<std::uint32_t>(
        std::max_element(row, row + numActions_) - row);
}

void
DqnHead::target(const float *eval, const float *sel, const float *rewards,
                std::size_t rows, float *out)
{
    // With Double DQN the training network chooses the next action and
    // the frozen network scores it, decoupling selection from
    // evaluation (van Hasselt et al., 2016).
    for (std::size_t r = 0; r < rows; r++) {
        const float *evalRow = eval + r * numActions_;
        float nextValue;
        if (sel) {
            const float *selRow = sel + r * numActions_;
            const auto bestA = static_cast<std::size_t>(
                std::max_element(selRow, selRow + numActions_) - selRow);
            nextValue = evalRow[bestA];
        } else {
            nextValue = *std::max_element(evalRow, evalRow + numActions_);
        }
        out[r] = rewards[r] + gamma_ * nextValue;
    }
}

void
DqnHead::loss(const LossBatch &b)
{
    // MSE on the taken action's Q-value only.
    for (std::size_t r = 0; r < b.rows; r++) {
        const std::size_t row = b.outRow ? b.outRow[r] : r;
        const std::uint32_t action = b.actions[r];
        const float diff = b.out[row * numActions_ + action] - b.targets[r];
        const float weight = b.weights ? b.weights[r] : 1.0f;
        b.priorities[r] = std::abs(diff);
        b.grad[row * numActions_ + action] += diff * weight;
        b.losses[r] = 0.5 * static_cast<double>(diff) * diff;
    }
}

double
DqnHead::valueDelta(double loss, double prevLoss) const
{
    // The change in RMS TD error. The raw TD error keeps a reward-noise
    // floor at convergence (constant learning rate), so only its
    // movement signals that the value estimates are still in flux.
    return std::sqrt(loss) - std::sqrt(std::max(0.0, prevLoss));
}

DqnAgent::DqnAgent(const AgentConfig &cfg)
    : ValueAgent(cfg, std::make_unique<DqnHead>(cfg))
{
}

} // namespace sibyl::rl
