#include "rl/q_table.hh"

#include <algorithm>
#include <cmath>

namespace sibyl::rl
{

QTableAgent::QTableAgent(const AgentConfig &cfg) : Agent(cfg, 0x7AB1E)
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

void
QTableAgent::values(const ml::Vector &state, double *q) const
{
    const auto it = table_.find(stateKey(state));
    if (it == table_.end())
        std::fill_n(q, cfg_.numActions, 0.0);
    else
        std::copy(it->second.begin(), it->second.end(), q);
}

std::vector<double>
QTableAgent::qValues(const ml::Vector &state)
{
    std::vector<double> q(cfg_.numActions);
    values(state, q.data());
    return q;
}

const double *
QTableAgent::find(const ml::Vector &state) const
{
    const auto it = table_.find(stateKey(state));
    return it == table_.end() ? nullptr : it->second.data();
}

std::uint32_t
QTableAgent::greedyAction(const ml::Vector &state)
{
    // The first maximum of the stored row, read in place (an unvisited
    // state's row is all zeros) — the action std::max_element picks.
    const double *q = find(state);
    const auto value = [q](std::uint32_t a) { return q ? q[a] : 0.0; };
    const bool restricted = !maskCoversAll(actionMask_, cfg_.numActions);
    // With a restricting mask, the first maximum among the allowed
    // actions only.
    std::uint32_t best =
        restricted ? static_cast<std::uint32_t>(std::countr_zero(actionMask_))
                   : 0;
    for (std::uint32_t a = best + 1; a < cfg_.numActions; a++)
        if ((!restricted || (actionMask_ >> a & 1u)) &&
            value(a) > value(best))
            best = a;
    return best;
}

std::uint32_t
QTableAgent::selectAction(const ml::Vector &state)
{
    std::uint32_t action = 0;
    if (explore([&](double *q) { values(state, q); }, action))
        return action;
    return greedyAction(state);
}

void
QTableAgent::observe(const ml::Vector &state, std::uint32_t action,
                     float reward, const ml::Vector &nextState)
{
    // One-step Q-learning: Q(s,a) += alpha * (r + gamma max_a' Q(s',a')
    //                                          - Q(s,a)).
    auto &q = row(stateKey(state));
    const double *nextQ = find(nextState);
    const double maxNext =
        nextQ ? *std::max_element(nextQ, nextQ + cfg_.numActions) : 0.0;
    const double target = reward + cfg_.gamma * maxNext;
    const double tdError = target - q[action];
    q[action] += cfg_.learningRate * tdError;
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
