#include "rl/c51_agent.hh"

#include <algorithm>

#include "ml/activations.hh"
#include "ml/loss.hh"

namespace sibyl::rl
{

C51Head::C51Head(const AgentConfig &cfg)
    : numActions_(cfg.numActions),
      atoms_(cfg.atoms),
      gamma_(cfg.gamma),
      support_(cfg.vmin, cfg.vmax, cfg.atoms)
{
}

const ml::Vector &
C51Head::actionDist(const float *row, std::uint32_t action)
{
    rowDist_.assign(row + action * atoms_, row + (action + 1) * atoms_);
    ml::softmax(rowDist_);
    return rowDist_;
}

double
C51Head::actionValue(const float *row, std::uint32_t a)
{
    return support_.expectation(actionDist(row, a));
}

std::uint32_t
C51Head::greedy(const float *row, std::uint32_t mask, bool restricted)
{
    // Per-row categorical expectation in reused scratch: softmax each
    // action's atom group, take its expectation over the support, and
    // keep the first maximum — the same winner std::max_element picks
    // over a materialized Q vector, without materializing one. With a
    // restricting action mask, masked actions are skipped; the allowed
    // actions keep the exact same expectations and tie-break order.
    std::uint32_t bestA =
        restricted ? static_cast<std::uint32_t>(std::countr_zero(mask))
                   : 0;
    double bestQ = -1e300;
    for (std::uint32_t a = 0; a < numActions_; a++) {
        if (restricted && !(mask >> a & 1u))
            continue;
        const double q = actionValue(row, a);
        if (q > bestQ) {
            bestQ = q;
            bestA = a;
        }
    }
    return bestA;
}

void
C51Head::target(const float *evalRow, const float * /*selRow*/,
                float reward, float *out)
{
    // Greedy next action by distribution expectation. Softmax every
    // action group once into one scratch buffer; the winner's
    // distribution is then reused for the projection instead of
    // being recomputed.
    dists_.assign(evalRow, evalRow + numActions_ * atoms_);
    std::uint32_t bestA = 0;
    double bestQ = -1e30;
    for (std::uint32_t a = 0; a < numActions_; a++) {
        float *d = dists_.data() + a * atoms_;
        ml::softmax(d, atoms_);
        const double q = support_.expectation(d);
        if (q > bestQ) {
            bestQ = q;
            bestA = a;
        }
    }
    support_.project(dists_.data() + bestA * atoms_, reward, gamma_,
                     target_);
    std::copy(target_.begin(), target_.end(), out);
}

double
C51Head::loss(const float *outRow, std::uint32_t action,
              const float *target, float weight, float *gradRow,
              float &priority)
{
    // Cross-entropy between the projected target and the training
    // network's prediction for the taken action; gradient flows only
    // through that action's atom group.
    logits_.assign(outRow + action * atoms_, outRow + (action + 1) * atoms_);
    target_.assign(target, target + atoms_);
    const double loss =
        ml::softmaxCrossEntropy(logits_, target_, gradLogits_);
    priority = static_cast<float>(loss);
    float *grow = gradRow + action * atoms_;
    for (std::size_t k = 0; k < gradLogits_.size(); k++)
        grow[k] += gradLogits_[k] * weight;
    return loss;
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
