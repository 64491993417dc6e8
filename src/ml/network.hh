/**
 * @file
 * Feed-forward network built from DenseLayers.
 *
 * This is the function approximator behind Sibyl's C51 agent (§6.2: two
 * hidden layers of 20 and 30 swish neurons), the Archivist classifier,
 * and the output head of RNN-HSS.
 */

#pragma once

#include <vector>

#include "common/rng.hh"
#include "ml/layers.hh"

namespace sibyl::ml
{

/** Describes one layer of a network topology. */
struct LayerSpec
{
    std::size_t size;
    Activation act;
};

/**
 * A plain multilayer perceptron with backprop training support.
 *
 * Usage:
 *   Network net(6, {{20, Swish}, {30, Swish}, {102, Identity}}, rng);
 *   const Vector &out = net.forward(x);
 *   net.backward(dLoss_dOut);   // accumulates gradients
 *   optimizer.step(net);        // applies and clears them
 */
class Network
{
  public:
    /**
     * @param inputSize  Number of input features.
     * @param layers     Hidden and output layer sizes/activations.
     * @param rng        Source for weight initialization.
     */
    Network(std::size_t inputSize, const std::vector<LayerSpec> &layers,
            Pcg32 &rng);

    /** Run inference; the returned reference stays valid until the next
     *  forward() call. */
    const Vector &forward(const Vector &in);

    /**
     * Single-row inference through a preallocated per-network
     * workspace: no backward caches are written, no pending per-sample
     * or batched backward state is disturbed, and the steady-state
     * call performs zero heap allocations. Bit-identical to
     * forward(Vector) (see DenseLayer::inferRow for why that — and
     * not the batched k-grouped order — is the anchor); this is the
     * request path's selectAction kernel.
     *
     * @param in  inputSize() floats.
     * @return Pointer to outputSize() floats, valid until the next
     *         inferRow() call on this network.
     */
    const float *inferRow(const float *in);

    /** Convenience overload with a size assertion. */
    const float *inferRow(const Vector &in);

    /** Backpropagate the loss gradient of the last forward() sample. */
    void backward(const Vector &gradOut);

    /**
     * Batched inference: @p in is (batch x inputSize); the returned
     * (batch x outputSize) reference stays valid until the next batched
     * forward() call. One GEMM per layer for the whole minibatch.
     *
     * @warning For a subsequent batched backward(), @p in must stay
     * alive and unchanged until that backward() returns — the first
     * layer caches a pointer to it, not a copy (see DenseLayer).
     */
    const Matrix &forward(const Matrix &in);

    /**
     * Batched inference-only forward: identical result to
     * forward(Matrix) without storing backward caches. Use for frozen
     * target-network evaluations; invalidates any pending backward()
     * state of this network.
     */
    const Matrix &infer(const Matrix &in);

    /**
     * Batched forward whose output layer computes only the slices of
     * @p groups, lane-major into @p out (see DenseLayer::forwardLanes):
     * each element has the bits forward(Matrix) gives it. The next
     * backward() takes a gradOut that is zero outside those slices and
     * skips the output layer's input-gradient work there. @p in and
     * @p groups must stay alive and unchanged until that backward()
     * returns.
     */
    void forward(const Matrix &in, const LaneGroups &groups, float *out);

    /**
     * Batched backprop of the last batched forward(). Accumulates the
     * same summed-over-batch gradients as per-sample backward() called
     * row by row.
     */
    void backward(const Matrix &gradOut);

    /** Zero all accumulated parameter gradients. */
    void clearGrads();

    /** Reserve the batched infer() buffers — and with @p backward also
     *  forward()'s caches and backward()'s scratch — for batches of up
     *  to @p rows rows, so batches of varying size never allocate. */
    void reserveBatch(std::size_t rows, bool backward);

    /** Copy the weights of @p other into this network (same topology).
     *  This is the "training network -> inference network" weight copy
     *  the paper performs every 1000 requests. */
    void copyWeightsFrom(const Network &other);

    /** Total trainable parameter count (weights + biases). */
    std::size_t paramCount() const;

    /** Flatten all parameters (for checkpointing/tests). */
    std::vector<float> saveParams() const;

    /** Restore parameters saved by saveParams(). */
    void loadParams(const std::vector<float> &params);

    std::size_t inputSize() const { return inputSize_; }
    std::size_t outputSize() const;
    std::vector<DenseLayer> &layers() { return layers_; }
    const std::vector<DenseLayer> &layers() const { return layers_; }

  private:
    std::size_t inputSize_;
    std::vector<DenseLayer> layers_;
    std::vector<Vector> acts_; // per-layer outputs from last forward

    // Reused scratch: per-sample backward ping-pong buffers and the
    // batched path's per-layer activations. No steady-state allocation.
    Vector gradScratchA_;
    Vector gradScratchB_;
    std::vector<Matrix> actsM_;
    Matrix gradScratchMA_;
    Matrix gradScratchMB_;

    // inferRow() ping-pong rows, sized to the widest layer at
    // construction so the decision path never allocates.
    Vector rowBufA_;
    Vector rowBufB_;
};

} // namespace sibyl::ml
