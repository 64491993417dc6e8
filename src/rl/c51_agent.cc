#include "rl/c51_agent.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ml/activations.hh"

namespace sibyl::rl
{

C51Head::C51Head(const AgentConfig &cfg)
    : numActions_(cfg.numActions),
      atoms_(cfg.atoms),
      gamma_(cfg.gamma),
      support_(cfg.vmin, cfg.vmax, cfg.atoms),
      decodeBuf_(static_cast<std::size_t>(cfg.atoms) * 2),
      decodeQ_(cfg.numActions)
{
    // Full-batch loss scratch up front: the distinct-prediction count
    // varies from batch to batch, and growing to each new high-water
    // mark would allocate in training rounds long after warm-up.
    const std::size_t rows = cfg.batchSize;
    pairSlot_.reserve(rows * numActions_);
    pairOf_.reserve(rows);
    pairKey_.reserve(rows);
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

/**
 * The one C51 decode step: gather the L atom groups @p src into the
 * lanes of @p t, softmax them (ml::softmaxLanes) and write each lane's
 * expectation over the support, summed in double in ascending atom
 * order, to q[0..L). Lanes hold actions of one row on the decision
 * side and rows of one action in the training target; each lane runs
 * exactly softmax() and CategoricalSupport::expectation() of its own
 * group.
 */
template <std::size_t L>
void
laneValues(const float *const *src, std::size_t atoms,
           const CategoricalSupport &support, float *t, double *q)
{
    interleave<L>(src, atoms, t);
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
        laneValues<L>(src, atoms, support_, decodeBuf_.data(), ql);
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
    lanes_.resize(numActions_ * atoms * L);
    dist_.resize(atoms);
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
            double q[L];
            laneValues<L>(src, atoms, support_,
                          lanes_.data() + a * atoms * L, q);
            for (std::size_t l = 0; l < L; l++) {
                if (q[l] > bestQ[l]) {
                    bestQ[l] = q[l];
                    bestA[l] = a;
                }
            }
        }
        for (std::size_t l = 0; l < live; l++) {
            const float *t = lanes_.data() + bestA[l] * atoms * L;
            for (std::size_t i = 0; i < atoms; i++)
                dist_[i] = t[i * L + l];
            support_.project(dist_.data(), rewards[r0 + l], gamma_,
                             out + (r0 + l) * atoms);
        }
    }
}

void
C51Head::loss(const LossBatch &b)
{
    // Cross-entropy between each row's projected target and the
    // training network's prediction for the taken action; the gradient
    // flows only through that action's atom group. Rows repeating an
    // (output row, action) pair — folded duplicate states taking the
    // same action — share one prediction, so its softmax and log-
    // probabilities are computed once. The loss keeps the historical
    // per-element form, NOT the cheaper log-softmax identity: the
    // scalar feeds PER priorities, so changing its rounding would
    // silently shift prioritized-replay trajectories.
    constexpr std::size_t L = ml::kSoftmaxLanes;
    const std::size_t atoms = atoms_;
    pairSlot_.assign(b.outRows * numActions_, -1);
    pairOf_.resize(b.rows);
    pairKey_.clear();
    for (std::size_t r = 0; r < b.rows; r++) {
        const std::size_t row = b.outRow ? b.outRow[r] : r;
        const std::size_t key = row * numActions_ + b.actions[r];
        if (pairSlot_[key] < 0) {
            pairSlot_[key] = static_cast<std::int32_t>(pairKey_.size());
            pairKey_.push_back(static_cast<std::uint32_t>(key));
        }
        pairOf_[r] = static_cast<std::uint32_t>(pairSlot_[key]);
    }

    // Softmax of every distinct prediction, kSoftmaxLanes at a time.
    // Pair key k's logits are output atoms [k * atoms, (k + 1) * atoms).
    // Then the log of every clamped probability in one sweep:
    // ml::logSpan gives std::log's bits.
    const std::size_t pairs = pairKey_.size();
    probs_.resize(pairs * atoms);
    logProbs_.resize(pairs * atoms);
    lanes_.resize(atoms * L);
    for (std::size_t p0 = 0; p0 < pairs; p0 += L) {
        const std::size_t live = std::min(L, pairs - p0);
        const float *src[L];
        for (std::size_t l = 0; l < L; l++)
            src[l] = b.out + pairKey_[p0 + (l < live ? l : 0)] * atoms;
        interleave<L>(src, atoms, lanes_.data());
        ml::softmaxLanes<L>(lanes_.data(), atoms);
        for (std::size_t l = 0; l < live; l++) {
            for (std::size_t i = 0; i < atoms; i++) {
                const float p = lanes_[i * L + l];
                probs_[(p0 + l) * atoms + i] = p;
                logProbs_[(p0 + l) * atoms + i] = std::max(p, 1e-12f);
            }
        }
    }
    ml::logSpan(logProbs_.data(), logProbs_.data(), pairs * atoms);

    for (std::size_t r = 0; r < b.rows; r++) {
        const std::size_t pair = pairOf_[r];
        const float *t = b.targets + r * atoms;
        const float *p = probs_.data() + pair * atoms;
        const float *logP = logProbs_.data() + pair * atoms;
        float loss = 0.0f;
        // "!= 0" and not "> 0": identical for valid (non-negative)
        // targets, but a NaN target weight must reach the loss — a
        // poisoned reward that silently zeroes its own loss term would
        // corrupt the weights while reporting perfect health. A select,
        // not a branch: 47 of 51 atoms carry target mass.
        for (std::size_t i = 0; i < atoms; i++)
            loss = t[i] != 0.0f ? loss - t[i] * logP[i] : loss;
        b.losses[r] = loss;
        b.priorities[r] = loss;
        const float weight = b.weights ? b.weights[r] : 1.0f;
        float *g = b.grad + pairKey_[pair] * atoms;
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
