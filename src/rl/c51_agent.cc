#include "rl/c51_agent.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "ml/activations.hh"

namespace sibyl::rl
{

C51Head::C51Head(const AgentConfig &cfg)
    : numActions_(cfg.numActions),
      atoms_(cfg.atoms),
      gamma_(cfg.gamma),
      support_(cfg.vmin, cfg.vmax, cfg.atoms),
      decodeBuf_(static_cast<std::size_t>(cfg.atoms) * 2),
      decodeQ_(cfg.numActions),
      targetLanes_(std::size_t{numActions_} * atoms_ * ml::kSoftmaxLanes),
      dist_(static_cast<std::size_t>(cfg.atoms) * ml::kSoftmaxLanes),
      projected_((cfg.atoms + std::size_t{1}) * ml::kSoftmaxLanes)
{
    // NaN would send the projection's landing points out of range.
    if (std::isnan(cfg.gamma))
        throw std::invalid_argument("C51 agent: gamma is NaN");

    // Full-batch loss scratch up front: the distinct-prediction count
    // varies from batch to batch, and growing to each new high-water
    // mark would allocate in training rounds long after warm-up. A
    // batch's loss groups hold at most rows + numActions * (L - 1)
    // lanes.
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t rows = cfg.batchSize;
    const std::size_t lossLanes = rows + numActions_ * L;
    pairSlot_.reserve(rows * numActions_);
    pairLane_.reserve(rows);
    pairOf_.reserve(rows);
    lossGroups_.seg.reserve(lossLanes / L);
    lossGroups_.rows.reserve(lossLanes);
    lanes_.reserve(lossLanes * atoms_);
    probs_.reserve(rows * atoms_);
    logProbs_.reserve(rows * atoms_);
}

namespace
{

/** First-max start of every C51 decode: below any finite expectation,
 *  so the decision and the training target pick the same winner on
 *  any support. */
constexpr double kNoValue = -1e300;

/** Gather L atom groups into SIMD lanes: t[i * L + l] = src[l][i]. */
template <std::size_t L>
void
interleave(const float *const *src, std::size_t atoms, float *t)
{
    for (std::size_t i = 0; i < atoms; i++)
        for (std::size_t l = 0; l < L; l++)
            t[i * L + l] = src[l][i];
}

/** Gather the slices of @p g from the row-major outputs @p out (rows of
 *  @p width) into the lane-major layout Network::forward(in, groups,
 *  out) writes. */
void
gatherLanes(const float *out, std::size_t width, const ml::LaneGroups &g,
            float *lanes)
{
    constexpr std::size_t L = ml::kSoftmaxLanes;
    for (std::size_t grp = 0; grp < g.size(); grp++) {
        const float *src[L];
        for (std::size_t l = 0; l < L; l++)
            src[l] = out + g.rows[grp * L + l] * width + g.seg[grp] * g.width;
        interleave<L>(src, g.width, lanes + grp * g.width * L);
    }
}

/**
 * The one C51 decode step: softmax the L lane-major atom groups of
 * @p t in place (ml::softmaxLanes) and write each lane's expectation
 * over the support, summed in double in ascending atom order, to
 * q[0..L). Lanes hold actions of one row on the decision side and rows
 * of one action in the training target; each lane runs exactly
 * softmax() and CategoricalSupport::expectation() of its own group.
 */
template <std::size_t L>
void
laneValues(float *t, std::size_t atoms, const CategoricalSupport &support,
           double *q)
{
    ml::softmaxLanes<L>(t, atoms);
    for (std::size_t l = 0; l < L; l++)
        q[l] = 0.0;
    for (std::uint32_t i = 0; i < atoms; i++) {
        const double z = support.atomValue(i);
        for (std::size_t l = 0; l < L; l++)
            q[l] += static_cast<double>(t[i * L + l]) * z;
    }
}

} // namespace

void
C51Head::values(const float *row, double *q)
{
    // Actions two at a time across SIMD lanes (an 8-lane decode of the
    // default 2 actions measured slower than the serial per-action
    // chains); a lone last action fills both lanes.
    constexpr std::size_t L = 2;
    const std::size_t atoms = atoms_;
    for (std::uint32_t a0 = 0; a0 < numActions_; a0 += L) {
        const std::size_t live = std::min<std::size_t>(L, numActions_ - a0);
        const float *src[L];
        for (std::size_t l = 0; l < L; l++)
            src[l] = row + (a0 + (l < live ? l : 0)) * atoms;
        double ql[L];
        interleave<L>(src, atoms, decodeBuf_.data());
        laneValues<L>(decodeBuf_.data(), atoms, support_, ql);
        for (std::size_t l = 0; l < live; l++)
            q[a0 + l] = ql[l];
    }
}

std::uint32_t
C51Head::greedy(const float *row, std::uint32_t mask, bool restricted)
{
    // Every action's expectation, then the first maximum — the same
    // winner std::max_element picks over the Q vector. With a
    // restricting action mask, masked actions are skipped; the allowed
    // actions keep the exact same expectations and tie-break order.
    values(row, decodeQ_.data());
    std::uint32_t bestA =
        restricted ? static_cast<std::uint32_t>(std::countr_zero(mask))
                   : 0;
    double bestQ = kNoValue;
    for (std::uint32_t a = 0; a < numActions_; a++) {
        if (restricted && !(mask >> a & 1u))
            continue;
        if (decodeQ_[a] > bestQ) {
            bestQ = decodeQ_[a];
            bestA = a;
        }
    }
    return bestA;
}

void
C51Head::target(const float *eval, const float * /*sel*/,
                const float *rewards, std::size_t rows, float *out)
{
    // Greedy next action by distribution expectation, then that
    // action's distribution projected under (reward, gamma). Rows go
    // kSoftmaxLanes at a time across SIMD lanes through the same
    // decode step and first-max rule as greedy(), each lane doing
    // exactly its own row's sequence.
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t atoms = atoms_;
    const std::size_t width = outputWidth();
    for (std::size_t r0 = 0; r0 < rows; r0 += L) {
        const std::size_t live = std::min(L, rows - r0);
        double bestQ[L];
        std::uint32_t bestA[L];
        for (std::size_t l = 0; l < L; l++) {
            bestQ[l] = kNoValue;
            bestA[l] = 0;
        }
        for (std::uint32_t a = 0; a < numActions_; a++) {
            // Lanes past the last row repeat the group's first row.
            const float *src[L];
            for (std::size_t l = 0; l < L; l++)
                src[l] = eval + (r0 + (l < live ? l : 0)) * width + a * atoms;
            float *t = targetLanes_.data() + a * atoms * L;
            interleave<L>(src, atoms, t);
            double q[L];
            laneValues<L>(t, atoms, support_, q);
            for (std::size_t l = 0; l < L; l++) {
                if (q[l] > bestQ[l]) {
                    bestQ[l] = q[l];
                    bestA[l] = a;
                }
            }
        }
        // Each lane's winning distribution, projected lanes across
        // rows, then each live lane's target into its output row.
        double reward[L];
        for (std::size_t l = 0; l < L; l++) {
            const float *t = targetLanes_.data() + bestA[l] * atoms * L;
            for (std::size_t i = 0; i < atoms; i++)
                dist_[i * L + l] = t[i * L + l];
            reward[l] = rewards[r0 + (l < live ? l : 0)];
        }
        support_.projectLanes(dist_.data(), reward, gamma_,
                              projected_.data());
        for (std::size_t l = 0; l < live; l++)
            for (std::size_t i = 0; i < atoms; i++)
                out[(r0 + l) * atoms + i] = projected_[i * L + l];
    }
}

ValueHead::Lanes
C51Head::planLoss(const LossBatch &b)
{
    // Rows repeating an (output row, action) pair — folded duplicate
    // states taking the same action — share one prediction. Group the
    // distinct ones by action, in ascending output row, kSoftmaxLanes
    // to a group; a group's spare lanes repeat its first row.
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t actions = numActions_;
    const auto key = [&](std::size_t r) {
        return (b.outRow ? b.outRow[r] : r) * actions + b.actions[r];
    };
    pairSlot_.assign(b.outRows * actions, -1);
    for (std::size_t r = 0; r < b.rows; r++)
        pairSlot_[key(r)] = 0;
    std::vector<std::uint32_t> &lane = lossGroups_.rows;
    lossGroups_.width = atoms_;
    lossGroups_.seg.clear();
    lane.clear();
    pairLane_.clear();
    for (std::uint32_t a = 0; a < actions; a++) {
        for (std::size_t u = 0; u < b.outRows; u++) {
            std::int32_t &slot = pairSlot_[u * actions + a];
            if (slot < 0)
                continue;
            if (lane.size() % L == 0)
                lossGroups_.seg.push_back(a);
            slot = static_cast<std::int32_t>(pairLane_.size());
            pairLane_.push_back(static_cast<std::uint32_t>(lane.size()));
            lane.push_back(static_cast<std::uint32_t>(u));
        }
        while (lane.size() % L)
            lane.push_back(lane[lane.size() / L * L]);
    }
    pairOf_.resize(b.rows);
    for (std::size_t r = 0; r < b.rows; r++)
        pairOf_[r] = static_cast<std::uint32_t>(pairSlot_[key(r)]);
    lanes_.resize(lane.size() * atoms_);
    return {&lossGroups_, lanes_.data()};
}

namespace
{

/** The cross-entropy chains of R rows, interleaved so their latencies
 *  overlap; each row keeps its own sequential sum over the atoms. */
template <std::size_t R>
[[gnu::always_inline]] inline void
lossChains(const float *const *t, const float *const *logP,
           std::size_t atoms, float *loss)
{
    float acc[R];
    for (std::size_t k = 0; k < R; k++)
        acc[k] = 0.0f;
    // "!= 0" and not "> 0": identical for valid (non-negative)
    // targets, but a NaN target weight must reach the loss — a
    // poisoned reward that silently zeroes its own loss term would
    // corrupt the weights while reporting perfect health. A select,
    // not a branch: 47 of 51 atoms carry target mass.
    for (std::size_t i = 0; i < atoms; i++)
        for (std::size_t k = 0; k < R; k++)
            acc[k] = t[k][i] != 0.0f ? acc[k] - t[k][i] * logP[k][i]
                                     : acc[k];
    for (std::size_t k = 0; k < R; k++)
        loss[k] = acc[k];
}

} // namespace

void
C51Head::loss(const LossBatch &b)
{
    // Cross-entropy between each row's projected target and the
    // training network's prediction for the taken action; the gradient
    // flows only through that action's atom group. Each distinct
    // prediction's softmax and log-probabilities are computed once
    // (planLoss). The loss keeps the historical per-element form, NOT
    // the cheaper log-softmax identity: the scalar feeds PER
    // priorities, so changing its rounding would silently shift
    // prioritized-replay trajectories.
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t atoms = atoms_;
    if (b.out) {
        planLoss(b);
        gatherLanes(b.out, outputWidth(), lossGroups_, lanes_.data());
    }

    // Softmax of every prediction, a group at a time, in place; each
    // prediction's probabilities into a row of their own, and the log
    // of every clamped probability in one sweep: ml::logSpan gives
    // std::log's bits.
    for (std::size_t g = 0; g < lossGroups_.size(); g++)
        ml::softmaxLanes<L>(lanes_.data() + g * atoms * L, atoms);
    const std::size_t pairs = pairLane_.size();
    probs_.resize(pairs * atoms);
    logProbs_.resize(pairs * atoms);
    for (std::size_t d = 0; d < pairs; d++) {
        const std::size_t q = pairLane_[d];
        const float *src = lanes_.data() + q / L * atoms * L + q % L;
        for (std::size_t i = 0; i < atoms; i++) {
            const float p = src[i * L];
            probs_[d * atoms + i] = p;
            logProbs_[d * atoms + i] = std::max(p, 1e-12f);
        }
    }
    ml::logSpan(logProbs_.data(), logProbs_.data(), pairs * atoms);

    constexpr std::size_t R = 4;
    float loss[R];
    for (std::size_t r0 = 0; r0 < b.rows; r0 += R) {
        const std::size_t n = std::min(R, b.rows - r0);
        const float *t[R], *logP[R];
        for (std::size_t k = 0; k < R; k++) {
            const std::size_t r = r0 + (k < n ? k : 0);
            t[k] = b.targets + r * atoms;
            logP[k] = logProbs_.data() + pairOf_[r] * atoms;
        }
        lossChains<R>(t, logP, atoms, loss);
        for (std::size_t k = 0; k < n; k++) {
            b.losses[r0 + k] = loss[k];
            b.priorities[r0 + k] = loss[k];
        }
    }
    for (std::size_t r = 0; r < b.rows; r++) {
        const float *t = b.targets + r * atoms;
        const float *p = probs_.data() + pairOf_[r] * atoms;
        const float weight = b.weights ? b.weights[r] : 1.0f;
        const std::size_t row = b.outRow ? b.outRow[r] : r;
        float *g = b.grad + row * outputWidth() + b.actions[r] * atoms;
        for (std::size_t i = 0; i < atoms; i++)
            g[i] += (p[i] - t[i]) * weight;
    }
}

double
C51Head::valueDelta(double loss, double prevLoss) const
{
    // The *change* in training loss proxies the value-update
    // magnitude. The raw cross-entropy cannot be used — it has an
    // irreducible entropy floor at convergence, so it would keep
    // epsilon pinned high forever; its round-to-round delta does
    // vanish once the distribution stops moving.
    return loss - prevLoss;
}

C51Agent::C51Agent(const C51Config &cfg)
    : ValueAgent(cfg, std::make_unique<C51Head>(cfg))
{
}

const CategoricalSupport &
C51Agent::support() const
{
    return static_cast<const C51Head &>(head()).support();
}

} // namespace sibyl::rl
