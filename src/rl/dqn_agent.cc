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
DqnHead::target(const float *evalRow, const float *selRow, float reward,
                float *out)
{
    // With Double DQN the training network chooses the next action and
    // the frozen network scores it, decoupling selection from
    // evaluation (van Hasselt et al., 2016).
    float nextValue;
    if (selRow) {
        const auto bestA = static_cast<std::size_t>(
            std::max_element(selRow, selRow + numActions_) - selRow);
        nextValue = evalRow[bestA];
    } else {
        nextValue = *std::max_element(evalRow, evalRow + numActions_);
    }
    out[0] = reward + gamma_ * nextValue;
}

double
DqnHead::loss(const float *outRow, std::uint32_t action,
              const float *target, float weight, float *gradRow,
              float &priority)
{
    // MSE on the taken action's Q-value only.
    const float diff = outRow[action] - target[0];
    priority = std::abs(diff);
    gradRow[action] += diff * weight;
    return 0.5 * static_cast<double>(diff) * diff;
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
