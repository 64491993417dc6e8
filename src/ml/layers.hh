/**
 * @file
 * Fully-connected layer with activation and backprop support.
 */

#pragma once

#include "common/rng.hh"
#include "ml/activations.hh"
#include "ml/matrix.hh"

namespace sibyl::ml
{

/**
 * Dense layer: out = f(W x + b).
 *
 * Single-row paths (forward(Vector), inferRow) compute each output as
 * a zero-seeded ascending-k sum, then + b, then f (Matrix::denseRow);
 * batched paths seed the sum with b and add k-groups (see
 * Matrix::matmulAdd), agreeing with the row paths to float tolerance.
 *
 * The layer caches its last input and pre-activation so that backward()
 * can be called immediately after forward() on the same sample. Gradients
 * accumulate into gradW/gradB until the optimizer consumes and clears
 * them, which is how mini-batch training is expressed: run
 * forward/backward for each sample of the batch, then take one step.
 */
class DenseLayer
{
  public:
    DenseLayer(std::size_t inSize, std::size_t outSize, Activation act);

    /**
     * He-style random initialization scaled for the fan-in. Uses the
     * caller's RNG so whole-network init is reproducible.
     */
    void initWeights(Pcg32 &rng);

    /** Compute the layer output for @p in, caching intermediates. */
    void forward(const Vector &in, Vector &out);

    /**
     * Single-row inference: out[0..outSize) = f(W in + b) with no
     * backward caches and no effect on any pending per-sample or
     * batched backward state. Bit-identical to forward(Vector): both
     * run Matrix::denseRow() against the cached W^T, so each output is
     * a zero-seeded sum of in[k] * W[j, k] over ascending k, then
     * + b[j], then the activation — the per-sample order every golden
     * RL trajectory is pinned to. (The batched forwards sum in a
     * k-grouped order and agree with this path to float tolerance;
     * their rows are composition-independent among themselves, which
     * the training caches rely on.) Touches no member scratch: the
     * caller owns both rows.
     *
     * @param in  inSize() floats.
     * @param out outSize() floats (may not alias @p in).
     */
    void inferRow(const float *in, float *out);

    /**
     * Backpropagate @p gradOut (dL/d out) through the cached sample,
     * accumulating parameter gradients and producing @p gradIn (dL/d in).
     */
    void backward(const Vector &gradOut, Vector &gradIn);

    /**
     * Batched forward: @p in is (batch x inSize), @p out becomes
     * (batch x outSize). One GEMM for the whole minibatch instead of a
     * matvec per sample; intermediates are cached for batched backward.
     * All scratch lives in reused member buffers, so the steady-state
     * hot loop performs no heap allocation.
     *
     * @warning The layer keeps a *pointer* to @p in (not a copy) as the
     * cached input for backward(); @p in must stay alive and unchanged
     * until backward() returns or the next forward() call. Network
     * guarantees this for its own layer chain; external callers doing
     * forward->backward must keep their input matrix in scope.
     */
    void forward(const Matrix &in, Matrix &out);

    /**
     * Batched inference-only forward: same math as forward(Matrix) but
     * skips the backward caches (no aux-transcendental store, no input
     * pointer). Clobbers the pre-activation scratch, so any pending
     * backward() state is invalidated — call forward() again before
     * backpropagating.
     */
    void forwardInfer(const Matrix &in, Matrix &out);

    /**
     * Batched forward that computes only the slices of @p g: each
     * group's columns of its rows, lane-major into @p out (see
     * LaneGroups and Matrix::denseLanes), every element with the bits
     * forward(Matrix) gives it. Only for the identity activation (a
     * network's output layer): @throws std::logic_error otherwise.
     * The next backward() then skips, exactly, the input-gradient
     * reduction groups whose gradient is zero because they lie outside
     * @p g's slices — the caller's gradOut must be zero there. Keeps
     * pointers to @p in and @p g, which must stay alive and unchanged
     * until backward() returns or the next forward.
     */
    void forwardLanes(const Matrix &in, const LaneGroups &g, float *out);

    /**
     * Batched backward for the cached minibatch: @p gradOut is
     * (batch x outSize); accumulates gradW/gradB summed over the batch
     * (same semantics as calling the per-sample backward once per row)
     * and produces @p gradIn (batch x inSize).
     *
     * @param computeGradIn Skip the input-gradient GEMM when false —
     *        the first layer of a network has no consumer for it.
     */
    void backward(const Matrix &gradOut, Matrix &gradIn,
                  bool computeGradIn = true);

    /** Zero accumulated gradients. */
    void clearGrads();

    /** Reserve the batched pre-activation scratch — and with
     *  @p backward also the forward caches and backward scratch — for
     *  batches of up to @p rows rows. */
    void reserveBatch(std::size_t rows, bool backward);

    std::size_t inSize() const { return weights_.cols(); }
    std::size_t outSize() const { return weights_.rows(); }
    Activation activation() const { return act_; }
    std::size_t paramCount() const { return weights_.size() + bias_.size(); }

    /** Mutable weight access. Marks the cached W^T used by the batched
     *  forward as stale (rebuilt lazily on the next batched forward),
     *  so optimizer updates and weight copies stay coherent. */
    Matrix &
    weights()
    {
        weightsTStale_ = true;
        return weights_;
    }
    const Matrix &weights() const { return weights_; }
    Vector &bias() { return bias_; }
    const Vector &bias() const { return bias_; }
    Matrix &gradWeights() { return gradW_; }
    Vector &gradBias() { return gradB_; }

  private:
    /** Shared GEMM+bias stage of the batched forwards. */
    void forwardPreAct(const Matrix &in);

    /** Rebuild the cached W^T if weights changed since the last use. */
    void ensureWeightsT();

    /** backward()'s input gradient after forwardLanes(): the dense
     *  kernel's bits, each row skipping the reduction groups that lie
     *  outside its segments. */
    void gradInLanes(const Matrix &delta, Matrix &gradIn);

    Matrix weights_;
    Vector bias_;
    Matrix gradW_;
    Vector gradB_;
    Activation act_;

    // Cached forward intermediates for backward().
    Vector lastIn_;
    Vector preAct_;
    Vector delta_; // per-sample backward scratch (reused, no per-call alloc)

    // Batched-path caches and scratch (reused across training batches).
    const Matrix *lastInBatch_ = nullptr; // see forward(Matrix) warning
    const LaneGroups *lastGroups_ = nullptr; // set by forwardLanes()
    Matrix preActM_;
    Matrix auxM_; // forward transcendentals reused by backward
    Matrix deltaM_;
    Matrix weightsT_;          // cached W^T for the batched GEMM
    bool weightsTStale_ = true;
    // Lane-path scratch: one group's X^T, each batch row's segment,
    // and row lists of the skipping kernel.
    Vector laneX_;
    std::vector<std::uint32_t> rowSeg_;
    std::vector<std::uint32_t> rowList_;
};

} // namespace sibyl::ml
