#include "ml/layers.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sibyl::ml
{

DenseLayer::DenseLayer(std::size_t inSize, std::size_t outSize,
                       Activation act)
    : weights_(outSize, inSize),
      bias_(outSize, 0.0f),
      gradW_(outSize, inSize),
      gradB_(outSize, 0.0f),
      act_(act)
{
}

void
DenseLayer::initWeights(Pcg32 &rng)
{
    // He initialization: stddev = sqrt(2 / fan_in). Works well for both
    // relu-like and swish activations on these small networks.
    double stddev = std::sqrt(2.0 / static_cast<double>(inSize()));
    for (std::size_t r = 0; r < weights_.rows(); r++)
        for (std::size_t c = 0; c < weights_.cols(); c++)
            weights_(r, c) =
                static_cast<float>(rng.nextGaussian(0.0, stddev));
    for (auto &b : bias_)
        b = 0.0f;
    weightsTStale_ = true;
}

void
DenseLayer::forward(const Vector &in, Vector &out)
{
    assert(in.size() == inSize());
    // assign() reuses lastIn_'s capacity; plain `lastIn_ = in` would too,
    // but be explicit that this path must not allocate at steady state.
    // Reading the copy keeps in == out callers safe.
    lastIn_.assign(in.begin(), in.end());
    ensureWeightsT();
    preAct_.resize(outSize());
    out.resize(outSize());
    weightsT_.denseRow(lastIn_.data(), bias_.data(), act_, out.data(),
                       preAct_.data());
}

void
DenseLayer::inferRow(const float *in, float *out)
{
    // The same fused kernel as forward(Vector) above, minus the
    // pre-activation store, so routing selectAction through this
    // cache-free path changes no decision bit relative to the
    // historical per-sample forward the golden trajectories are
    // pinned to.
    ensureWeightsT();
    weightsT_.denseRow(in, bias_.data(), act_, out);
}

void
DenseLayer::backward(const Vector &gradOut, Vector &gradIn)
{
    assert(gradOut.size() == outSize());
    assert(lastIn_.size() == inSize() && "forward() must precede backward()");

    // delta = gradOut .* f'(preAct), in reused member scratch.
    delta_.resize(outSize());
    activateGradMul(act_, preAct_.data(), gradOut.data(), delta_.data(),
                    outSize());

    gradW_.addOuter(delta_, lastIn_, 1.0f);
    axpy(delta_, gradB_, 1.0f);
    weights_.matvecTransposed(delta_, gradIn);
}

void
DenseLayer::forward(const Matrix &in, Matrix &out)
{
    assert(in.cols() == inSize());
    const std::size_t batch = in.rows();
    lastInBatch_ = &in;

    forwardPreAct(in);
    out.resize(batch, outSize());
    auxM_.resize(batch, outSize());
    activateWithAux(act_, preActM_.data(), out.data(), auxM_.data(),
                    preActM_.size());
}

void
DenseLayer::forwardInfer(const Matrix &in, Matrix &out)
{
    assert(in.cols() == inSize());
    // Invalidate any pending backward state: preActM_/auxM_ no longer
    // belong to the last forward()'s batch, and clearing the cached
    // input makes a stray backward() trip its assert instead of
    // silently reading stale or mis-sized buffers.
    lastInBatch_ = nullptr;
    forwardPreAct(in);
    activate(act_, preActM_, out);
}

void
DenseLayer::ensureWeightsT()
{
    if (!weightsTStale_)
        return;
    weightsT_.resize(inSize(), outSize());
    for (std::size_t r = 0; r < outSize(); r++) {
        const float *wrow = weights_.row(r);
        for (std::size_t c = 0; c < inSize(); c++)
            weightsT_(c, r) = wrow[c];
    }
    weightsTStale_ = false;
}

void
DenseLayer::forwardPreAct(const Matrix &in)
{
    // preAct = bias (broadcast per row) + in * W^T. The reduction
    // dimension (fan-in) is tiny on these networks, so a dot-product
    // kernel against W rows cannot fill vector lanes; the GEMM instead
    // runs its contiguous j-inner FMA loop over the output neurons
    // against a cached W^T, rebuilt lazily after weight mutations
    // (optimizer steps, syncs). Seeding the output rows with the bias
    // replaces both the zero fill and a separate bias sweep.
    ensureWeightsT();
    const std::size_t batch = in.rows();
    preActM_.resize(batch, outSize());
    for (std::size_t r = 0; r < batch; r++)
        std::copy(bias_.begin(), bias_.end(), preActM_.row(r));
    in.matmulAdd(weightsT_, preActM_);
}

void
DenseLayer::backward(const Matrix &gradOut, Matrix &gradIn,
                     bool computeGradIn)
{
    assert(gradOut.cols() == outSize());
    assert(lastInBatch_ != nullptr &&
           gradOut.rows() == lastInBatch_->rows() &&
           gradOut.rows() == preActM_.rows() &&
           "batched forward() must precede batched backward()");

    // delta = gradOut .* f'(preAct), whole batch in one fused pass,
    // reusing the forward pass's cached transcendentals.
    deltaM_.resize(gradOut.rows(), gradOut.cols());
    activateGradMulAux(act_, preActM_.data(), auxM_.data(), gradOut.data(),
                       deltaM_.data(), gradOut.size());

    // gradW += delta^T * lastIn; gradB += column sums of delta.
    deltaM_.transposedMatmulAdd(*lastInBatch_, gradW_, 1.0f);
    const std::size_t outN = outSize();
    float *__restrict gb = gradB_.data();
    for (std::size_t r = 0; r < deltaM_.rows(); r++) {
        const float *__restrict drow = deltaM_.row(r);
#pragma GCC ivdep
        for (std::size_t c = 0; c < outN; c++)
            gb[c] += drow[c];
    }

    // gradIn = delta * W.
    if (computeGradIn)
        deltaM_.matmul(weights_, gradIn);
}

void
DenseLayer::reserveBatch(std::size_t rows, bool backward)
{
    preActM_.reserve(rows, outSize());
    if (backward) {
        auxM_.reserve(rows, outSize());
        deltaM_.reserve(rows, outSize());
    }
}

void
DenseLayer::clearGrads()
{
    gradW_.fill(0.0f);
    for (auto &g : gradB_)
        g = 0.0f;
}

} // namespace sibyl::ml
