#include "ml/loss.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/activations.hh"

namespace sibyl::ml
{

float
mseLoss(const Vector &pred, const Vector &target, Vector &grad)
{
    assert(pred.size() == target.size());
    grad.resize(pred.size());
    float loss = 0.0f;
    float n = static_cast<float>(pred.size());
    for (std::size_t i = 0; i < pred.size(); i++) {
        float d = pred[i] - target[i];
        loss += d * d;
        grad[i] = 2.0f * d / n;
    }
    return loss / n;
}

float
softmaxCrossEntropy(const Vector &logits, const Vector &target,
                    Vector &gradLogits)
{
    assert(logits.size() == target.size());
    // The scalar reference of one C51 training row: tests pin
    // rl::C51Head::loss, which runs whole batches, to it bit for bit.
    // The loss accumulation keeps the historical per-element form,
    // NOT the cheaper log-softmax identity: the scalar feeds PER
    // priorities, so changing its rounding would silently shift
    // prioritized-replay trajectories.
    gradLogits.assign(logits.begin(), logits.end());
    softmax(gradLogits);
    float loss = 0.0f;
    for (std::size_t i = 0; i < logits.size(); i++) {
        const float p = std::max(gradLogits[i], 1e-12f);
        // "!= 0" and not "> 0": identical for valid (non-negative)
        // targets, but a NaN target weight must reach the loss — a
        // poisoned reward that silently zeroes its own loss term
        // would corrupt the weights while reporting perfect health.
        if (target[i] != 0.0f)
            loss -= target[i] * std::log(p);
        gradLogits[i] -= target[i];
    }
    return loss;
}

float
binaryCrossEntropy(float logit, float target, float &gradLogit)
{
    float p = 1.0f / (1.0f + std::exp(-logit));
    p = std::clamp(p, 1e-7f, 1.0f - 1e-7f);
    float loss = -(target * std::log(p) +
                   (1.0f - target) * std::log(1.0f - p));
    gradLogit = p - target;
    return loss;
}

} // namespace sibyl::ml
