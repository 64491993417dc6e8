#include "rl/q_table.hh"

#include <algorithm>
#include <cmath>

namespace sibyl::rl
{

QTableAgent::QTableAgent(const AgentConfig &cfg)
    : cfg_(cfg), explore_(makeExploration(cfg)), rng_(cfg.seed, 0x7AB1E)
{
    // At least two quantization levels, or every state collapses into
    // one table row (and the key arithmetic underflows).
    cfg_.tableLevels = std::max(2u, cfg_.tableLevels);
}

std::uint64_t
QTableAgent::stateKey(const ml::Vector &state) const
{
    // FNV-1a over the quantized feature levels. Features arrive
    // normalized to [0,1]; quantizing to tableLevels per dimension
    // mirrors the Table 1 binning.
    std::uint64_t h = 1469598103934665603ULL;
    for (float v : state) {
        const double clamped = std::clamp(static_cast<double>(v), 0.0,
                                          1.0);
        const auto level = static_cast<std::uint64_t>(
            clamped * (cfg_.tableLevels - 1) + 0.5);
        h ^= level;
        h *= 1099511628211ULL;
    }
    return h;
}

std::vector<double> &
QTableAgent::row(std::uint64_t key)
{
    auto it = table_.find(key);
    if (it == table_.end()) {
        it = table_.emplace(key,
                            std::vector<double>(cfg_.numActions, 0.0))
                 .first;
    }
    return it->second;
}

std::vector<double>
QTableAgent::qValues(const ml::Vector &state)
{
    const auto it = table_.find(stateKey(state));
    if (it == table_.end())
        return std::vector<double>(cfg_.numActions, 0.0);
    return it->second;
}

std::uint32_t
QTableAgent::greedyAction(const ml::Vector &state)
{
    const auto q = qValues(state);
    if (!maskCoversAll(actionMask_, cfg_.numActions)) {
        // First maximum among the allowed actions only.
        auto best =
            static_cast<std::uint32_t>(std::countr_zero(actionMask_));
        for (std::uint32_t a = best + 1; a < cfg_.numActions; a++)
            if ((actionMask_ >> a & 1u) && q[a] > q[best])
                best = a;
        return best;
    }
    return static_cast<std::uint32_t>(
        std::max_element(q.begin(), q.end()) - q.begin());
}

std::uint32_t
QTableAgent::selectAction(const ml::Vector &state)
{
    const std::uint64_t step = stats_.decisions++;
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    if (explore_.isBoltzmann()) {
        const auto q = qValues(state);
        std::vector<double> probs;
        if (restricted) {
            // Compact the allowed actions, sample over them, map the
            // sampled index back to an action id.
            const auto allowed = static_cast<std::uint32_t>(
                std::popcount(actionMask_));
            std::vector<double> qAllowed(allowed);
            for (std::uint32_t i = 0; i < allowed; i++)
                qAllowed[i] = q[nthSetBit(actionMask_, i)];
            const auto greedy = static_cast<std::uint32_t>(
                std::max_element(qAllowed.begin(), qAllowed.end()) -
                qAllowed.begin());
            const std::uint32_t idx =
                explore_.sampleBoltzmann(qAllowed, probs, rng_);
            if (idx != greedy)
                stats_.randomActions++;
            return nthSetBit(actionMask_, idx);
        }
        const auto greedy = static_cast<std::uint32_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
        const std::uint32_t a = explore_.sampleBoltzmann(q, probs, rng_);
        if (a != greedy)
            stats_.randomActions++;
        return a;
    }
    if (rng_.nextBool(explore_.epsilonAt(step))) {
        stats_.randomActions++;
        // One bounded draw either way; a restricting mask only narrows
        // the range, so the fault-free RNG stream is untouched.
        return restricted
            ? nthSetBit(actionMask_,
                        rng_.nextBounded(static_cast<std::uint32_t>(
                            std::popcount(actionMask_))))
            : rng_.nextBounded(cfg_.numActions);
    }
    return greedyAction(state);
}

void
QTableAgent::observe(Experience e)
{
    // One-step Q-learning: Q(s,a) += alpha * (r + gamma max_a' Q(s',a')
    //                                          - Q(s,a)).
    auto &q = row(stateKey(e.state));
    const auto nextQ = qValues(e.nextState);
    const double maxNext = *std::max_element(nextQ.begin(), nextQ.end());
    const double target = e.reward + cfg_.gamma * maxNext;
    const double tdError = target - q[e.action];
    q[e.action] += cfg_.learningRate * tdError;
    stats_.gradientSteps++;
    stats_.lastLoss = 0.5 * tdError * tdError;
    // VDBE feedback: the applied Q-value change |alpha * TD| — Tokic's
    // original |Q_new - Q_old| form.
    explore_.observeValueDelta(cfg_.learningRate * std::abs(tdError));
}

std::size_t
QTableAgent::storageBytes() const
{
    return table_.size() *
           (sizeof(std::uint64_t) + cfg_.numActions * sizeof(double));
}

} // namespace sibyl::rl
