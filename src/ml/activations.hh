/**
 * @file
 * Activation functions for the dense layers.
 *
 * The paper uses the swish activation (x * sigmoid(x)) for all hidden
 * layers of Sibyl's networks because it outperformed ReLU in their design
 * exploration (§6.2.2). We also provide ReLU/sigmoid/tanh/identity for the
 * baseline models (Archivist classifier, RNN-HSS) and for ablations.
 */

#pragma once

#include "ml/matrix.hh"

namespace sibyl::ml
{

/** Supported activation kinds. */
enum class Activation
{
    Identity,
    ReLU,
    Sigmoid,
    Tanh,
    Swish,
};

/** Human-readable name. */
const char *activationName(Activation a);

/** Scalar forward evaluation. */
float activate(Activation a, float x);

/**
 * Scalar derivative d(out)/d(pre-activation), expressed in terms of the
 * pre-activation @p x (all supported activations are cheap to re-derive
 * from the pre-activation value).
 */
float activateGrad(Activation a, float x);

/** Vectorized forward: out[i] = f(in[i]). Resizes @p out. */
void activate(Activation a, const Vector &in, Vector &out);

/** Vectorized derivative in terms of pre-activations @p in. */
void activateGrad(Activation a, const Vector &in, Vector &out);

/** Span forward: out[i] = f(in[i]) for i in [0, n). May alias. */
void activate(Activation a, const float *in, float *out, std::size_t n);

/**
 * Fused backward pointwise step over a span:
 * delta[i] = gradOut[i] * f'(pre[i]). One pass instead of a derivative
 * sweep plus a multiply sweep — this runs once per layer per batch in
 * the training hot loop.
 */
void activateGradMul(Activation a, const float *pre, const float *gradOut,
                     float *delta, std::size_t n);

/**
 * Forward that additionally stashes the transcendental intermediate —
 * sigmoid(in) for Sigmoid/Swish, tanh(in) for Tanh — into @p aux
 * (untouched for Identity/ReLU). activateGradMulAux() then derives the
 * gradient from @p aux instead of re-evaluating exp/div in backward,
 * halving the transcendental cost of a training batch.
 */
void activateWithAux(Activation a, const float *in, float *out, float *aux,
                     std::size_t n);

/** Backward companion of activateWithAux():
 *  delta[i] = gradOut[i] * f'(pre[i]) computed from the cached aux. */
void activateGradMulAux(Activation a, const float *pre, const float *aux,
                        const float *gradOut, float *delta, std::size_t n);

/** Whole-batch forward: out = f(in) element-wise. Resizes @p out. */
void activate(Activation a, const Matrix &in, Matrix &out);

/** In-place numerically stable softmax. */
void softmax(Vector &v);

/** In-place softmax over a raw span (batched C51 head groups). */
void softmax(float *v, std::size_t n);

/** Lane count of the training-side softmaxLanes() calls and of
 *  LaneGroups (matrix.hh): one native vector, 16 rows per call with
 *  AVX-512F and 8 otherwise. Lanes are independent, so the count
 *  never changes a result bit. */
#if defined(__AVX512F__)
constexpr std::size_t kSoftmaxLanes = 16;
#else
constexpr std::size_t kSoftmaxLanes = 8;
#endif

/**
 * Softmax of L groups of @p n elements at once, stored interleaved:
 * element i of group l lives at v[i * L + l]. Each group gets
 * softmax()'s exact result bits — the first maximum's value, the same
 * exp, the ascending sum, the division — while the serial sum chains
 * of the L groups overlap in the lanes of one vector. The maximum, the
 * exp and the division run on native-width vectors holding several
 * elements of every group; the maximum is a tree, which finds the
 * same value (see activations.cc). Instantiated for L = 2 and
 * kSoftmaxLanes: the C51 decision decode puts one row's actions across
 * 2 lanes, the training head kSoftmaxLanes rows or predictions.
 */
template <std::size_t L>
void softmaxLanes(float *v, std::size_t n);

/**
 * Natural log over a span: out[i] = std::log(in[i]) for i in [0, n),
 * with the exact bits of glibc's logf (glibc >= 2.28), two vectors of
 * eight lanes at a time. May alias. The C51 loss takes the
 * log-probabilities of a whole training batch in one call.
 */
void logSpan(const float *in, float *out, std::size_t n);

/** Softmax over consecutive groups of @p groupSize elements (C51 heads). */
void groupedSoftmax(Vector &v, std::size_t groupSize);

} // namespace sibyl::ml
