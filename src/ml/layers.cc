#include "ml/layers.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace sibyl::ml
{

namespace
{

/** Whether no element of @p m is Inf or NaN. */
bool
allFinite(const Matrix &m)
{
    std::uint32_t special = 0;
    for (std::size_t i = 0; i < m.size(); i++) {
        std::uint32_t u;
        std::memcpy(&u, m.data() + i, sizeof u);
        special |= (~u & 0x7f800000u) == 0;
    }
    return special == 0;
}

/** rowSeg_ values besides a segment index. */
constexpr std::uint32_t kNoSegment = ~0u;
constexpr std::uint32_t kAllSegments = ~0u - 1;

} // namespace

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
    lastGroups_ = nullptr;

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
    lastGroups_ = nullptr;
    forwardPreAct(in);
    activate(act_, preActM_, out);
}

void
DenseLayer::forwardLanes(const Matrix &in, const LaneGroups &g, float *out)
{
    assert(in.cols() == inSize());
    assert(g.width > 0 && outSize() % g.width == 0);
    if (act_ != Activation::Identity)
        throw std::logic_error(
            "DenseLayer: lane slices need the identity activation");
    laneX_.resize(inSize() * kSoftmaxLanes);
    weights_.denseLanes(in, bias_.data(), g, laneX_.data(), out);
    lastInBatch_ = &in;
    lastGroups_ = &g;
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
           "batched forward() must precede batched backward()");

    // delta = gradOut .* f'(preAct), whole batch in one fused pass,
    // reusing the forward pass's cached transcendentals; the identity's
    // delta is gradOut itself.
    const Matrix *delta = &gradOut;
    if (act_ != Activation::Identity) {
        assert(gradOut.rows() == preActM_.rows());
        deltaM_.resize(gradOut.rows(), gradOut.cols());
        activateGradMulAux(act_, preActM_.data(), auxM_.data(),
                           gradOut.data(), deltaM_.data(), gradOut.size());
        delta = &deltaM_;
    }

    // gradB += column sums of delta.
    const std::size_t outN = outSize();
    float *__restrict gb = gradB_.data();
    for (std::size_t r = 0; r < delta->rows(); r++) {
        const float *__restrict drow = delta->row(r);
#pragma GCC ivdep
        for (std::size_t c = 0; c < outN; c++)
            gb[c] += drow[c];
    }

    // gradW += delta^T * lastIn; gradIn = delta * W.
    delta->transposedMatmulAdd(*lastInBatch_, gradW_, 1.0f);
    if (!computeGradIn)
        return;
    if (lastGroups_)
        gradInLanes(*delta, gradIn);
    else
        delta->matmul(weights_, gradIn);
}

void
DenseLayer::gradInLanes(const Matrix &delta, Matrix &gradIn)
{
    // Outside the groups' slices delta is +-0, and gradIn never holds
    // -0 (it starts at +0, and a sum is -0 only when both terms are),
    // so a skipped reduction group — every delta entry zero — would
    // have added a +-0 term that changes nothing. That holds while the
    // skipped products' weights are finite: a zero times Inf or NaN is
    // NaN, so a non-finite weight takes the dense kernel and its bits.
    if (inSize() < 5 || !allFinite(weights_)) {
        delta.matmul(weights_, gradIn);
        return;
    }
    const LaneGroups &g = *lastGroups_;
    const std::size_t rows = delta.rows();
    const std::size_t width = g.width;
    const std::size_t segments = outSize() / width;
    rowSeg_.assign(rows, kNoSegment);
    for (std::size_t grp = 0; grp < g.size(); grp++) {
        const std::uint32_t s = g.seg[grp];
        for (std::size_t l = 0; l < kSoftmaxLanes; l++) {
            std::uint32_t &rs = rowSeg_[g.rows[grp * kSoftmaxLanes + l]];
            rs = rs == kNoSegment || rs == s ? s : kAllSegments;
        }
    }

    // Rows grouped by segment: a one-segment row sums only the
    // reduction groups over its own columns.
    gradIn.resize(rows, inSize());
    gradIn.fill(0.0f);
    for (std::uint32_t s = 0; s <= segments; s++) {
        const std::uint32_t key = s < segments ? s : kAllSegments;
        rowList_.clear();
        for (std::size_t r = 0; r < rows; r++)
            if (rowSeg_[r] == key)
                rowList_.push_back(static_cast<std::uint32_t>(r));
        const std::size_t k0 = s < segments ? s * width : 0;
        const std::size_t k1 = s < segments ? k0 + width : outSize();
        delta.matmulAddRows(weights_, gradIn, rowList_.data(),
                            rowList_.size(), k0, k1);
    }
}

void
DenseLayer::reserveBatch(std::size_t rows, bool backward)
{
    preActM_.reserve(rows, outSize());
    if (backward) {
        auxM_.reserve(rows, outSize());
        deltaM_.reserve(rows, outSize());
        rowSeg_.reserve(rows);
        rowList_.reserve(rows);
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
