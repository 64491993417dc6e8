/**
 * @file
 * The dual-network value-learning agent, with a pluggable output head.
 *
 * Sibyl's learner (§6, Fig. 7) is one method: two identical networks,
 * where the *inference network* makes every placement decision and the
 * *training network* learns from replayed experiences in the
 * background. The training weights are copied to the inference network
 * every `targetSyncEvery` requests, which both keeps training off the
 * decision path and makes the inference network's frozen weights the
 * Bellman-target network. C51 and the "other variants of Deep
 * Q-Networks" (§6.2.1) differ only in what the output head learns.
 *
 * ValueAgent owns everything the neural variants share beyond the
 * rl::Agent base (exploration, action masking, counters): the replay
 * buffer and training cadence, weight syncs, the per-entry
 * Bellman-target cache, duplicate-state folding, prioritized-replay
 * weights, and one minibatch trainer. A ValueHead owns only what
 * differs: how an output row decodes into per-action values and a
 * greedy action, how next-state rows become Bellman targets, and the
 * loss. The training
 * side is minibatch-shaped: a head sees a whole batch at once, so it
 * can share work across rows (C51 runs eight rows per SIMD lane group
 * and computes each distinct prediction once); the per-sample
 * reference trains through the same methods with batches of one. A
 * new head is one small class (see C51Head and DqnHead).
 */

#pragma once

#include <memory>
#include <string>

#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "rl/agent.hh"
#include "rl/checkpoint.hh"
#include "rl/replay_buffer.hh"

namespace sibyl::rl
{

/** What one value-learning variant contributes to ValueAgent. */
class ValueHead
{
  public:
    /** Pcg32 stream ids: the agent's decision/sampling RNG (see
     *  Agent::Agent) and the initial weights of the training and inference networks. Part of
     *  each variant's bit-exact identity. */
    struct Salts
    {
        std::uint64_t rng;
        std::uint64_t trainInit;
        std::uint64_t inferInit;
    };

    virtual ~ValueHead() = default;

    /** Display name ("C51", "DQN"). */
    virtual std::string name() const = 0;
    /** Checkpoint family tag; the on-disk value never changes. */
    virtual FamilyTag family() const = 0;
    virtual Salts salts() const = 0;

    /** Network output width (the head layer). */
    virtual std::size_t outputWidth() const = 0;
    /** Floats per Bellman target (the target-cache row width). */
    virtual std::size_t targetWidth() const = 0;

    /** True when the Bellman target selects the next action with the
     *  live training network (Double DQN). Such targets change with
     *  every gradient step, so they are never cached. */
    virtual bool selectsWithTrainingNet() const { return false; }

    /** Greedy action from an inference-network output row. With
     *  @p restricted, only actions whose bit is set in @p mask may win,
     *  with the same values and tie-break order as unrestricted. */
    virtual std::uint32_t greedy(const float *row, std::uint32_t mask,
                                 bool restricted) = 0;

    /** Q-value estimates of every action from an output row, into
     *  q[0..numActions). greedy() picks the first maximum of exactly
     *  these values. */
    virtual void values(const float *row, double *q) = 0;

    /**
     * Bellman targets of @p rows transitions into @p out (rows x
     * targetWidth(), row-major), from the target network's next-state
     * rows @p eval (rows x outputWidth()), the @p rewards and, for
     * selectsWithTrainingNet() heads, the training network's
     * next-state rows @p sel (null otherwise). Row r's target is a
     * function of row r's inputs alone, bit for bit, whatever the
     * batch around it — which is what lets ValueAgent cache targets
     * per replay slot and evaluate a single transition as a batch of
     * one.
     */
    virtual void target(const float *eval, const float *sel,
                        const float *rewards, std::size_t rows,
                        float *out) = 0;

    /** One minibatch's loss inputs and outputs (see loss()). */
    struct LossBatch
    {
        std::size_t rows = 0;
        /** Training-network output rows (outRows x outputWidth()). */
        const float *out = nullptr;
        std::size_t outRows = 0;
        /** Row r's output row; null means row r. Folded duplicate
         *  states share one output row. */
        const std::uint32_t *outRow = nullptr;
        const std::uint32_t *actions = nullptr;
        /** Bellman targets, rows x targetWidth(). */
        const float *targets = nullptr;
        /** Importance weights; null means 1 for every row. */
        const float *weights = nullptr;
        /** Output gradient, same shape as @p out (accumulated). */
        float *grad = nullptr;
        double *losses = nullptr;
        float *priorities = nullptr;
    };

    /**
     * Loss of each row's taken action against its target: losses[r],
     * the transition's new replay priority priorities[r], and the
     * gradient times the row's weight added into grad's output row.
     * Gradients are added in ascending row order, so rows that share
     * an output row sum exactly as a row-by-row loop would. With
     * b.out null, the predictions come from the slices planLoss(b)
     * asked for.
     */
    virtual void loss(const LossBatch &b) = 0;

    /** Where a head wants output slices written (see planLoss()). */
    struct Lanes
    {
        const ml::LaneGroups *groups = nullptr;
        float *out = nullptr;
    };

    /**
     * A head that reads one action's slice of an output row (C51: the
     * taken action's atoms) can have the network compute only those
     * slices, lane-major (ml::Network::forward(in, groups, out)).
     * planLoss() groups @p b's distinct (output row, action)
     * predictions and returns the groups and the buffer their slices
     * go to; loss() reads them there when b.out is null. A head that
     * reads whole rows returns no groups and always gets b.out.
     */
    virtual Lanes planLoss(const LossBatch &) { return {}; }

    /** VDBE feedback from the round-to-round change in mean loss. */
    virtual double valueDelta(double loss, double prevLoss) const = 0;
};

/**
 * The agent. Drive it with selectAction() for each decision and
 * observe() for each completed transition; training and weight syncs
 * happen automatically at the configured cadence.
 */
class ValueAgent : public Agent
{
  public:
    /** @throws std::invalid_argument for a zero sync or training
     *  cadence. */
    ValueAgent(const AgentConfig &cfg, std::unique_ptr<ValueHead> head);

    std::string name() const override { return head_->name(); }

    /** Exploring action for @p state using the inference network. */
    std::uint32_t selectAction(const ml::Vector &state) override;

    /** Split-decision phases (see Agent): Begin runs the exploration
     *  step (Agent::explore), FromRow decodes the greedy action from the inference network's
     *  output row, which the caller evaluates with inferRow. */
    bool selectActionBegin(const ml::Vector &state,
                           std::uint32_t &action) override;
    std::uint32_t selectActionFromRow(const float *row) override;
    ml::Network *batchNetwork() override { return inferenceNet_.get(); }

    /** Greedy action (no exploration) — used by evaluation probes. */
    std::uint32_t greedyAction(const ml::Vector &state) override;

    /** Per-action Q-value estimates from the inference network. */
    std::vector<double> qValues(const ml::Vector &state) override;

    /**
     * Record a transition. Once the buffer has filled, every
     * `trainEvery` (default: `bufferCapacity`) observations trigger a
     * training round (batchesPerTraining x batchSize gradient steps),
     * and every `targetSyncEvery` observations the training weights
     * are copied to the inference network (Algorithm 1, lines 16-19).
     */
    void observe(const ml::Vector &state, std::uint32_t action,
                 float reward, const ml::Vector &nextState) override;

    /** Force one training round (for tests). */
    double trainRound() override;

    /** trainRound() through the per-sample reference trainer: the same
     *  sampled indices and counters, one forward/backward chain per
     *  row instead of the batched GEMM engine (for the twin-agent
     *  numerics tests). */
    double trainRoundPerSample();

    /** Force a training-to-inference weight copy (for tests).
     *  Invalidates the cached Bellman targets. */
    void syncWeights();

    const ValueHead &head() const { return *head_; }
    const ReplayBuffer &buffer() const { return buffer_; }
    ml::Network &inferenceNetwork() { return *inferenceNet_; }
    ml::Network &trainingNetwork() { return *trainingNet_; }
    const ml::Network &inferenceNetwork() const { return *inferenceNet_; }
    const ml::Network &trainingNetwork() const { return *trainingNet_; }

    /** Change the learning rate online (Sibyl_Opt uses 1e-5). */
    void setLearningRate(double lr) override;

    /** fp16 weights of both networks + the 100-bit/entry replay buffer
     *  (the paper's 124.4 KiB accounting, §10.2). */
    std::size_t storageBytes() const override;

  private:
    /** One training round: per batch, sample sampled_ from the ring
     *  and hand it to @p trainOne, which takes one gradient step on it
     *  and returns the mean loss. */
    double runRound(double (ValueAgent::*trainOne)());

    /** The minibatch trainer: one gradient step over the ring entries
     *  in sampled_, with Bellman targets from the inference network and
     *  the target cache and prioritized replay as configured. */
    double trainBatch();

    /** Per-sample reference for trainBatch: one forward/backward chain
     *  per sampled row (see trainRoundPerSample). */
    double trainPerSample();

    std::unique_ptr<ValueHead> head_;
    ReplayBuffer buffer_;
    std::unique_ptr<ml::Network> inferenceNet_;
    std::unique_ptr<ml::Network> trainingNet_;
    ml::Adam optimizer_;
    std::uint64_t observations_ = 0;

    // Training-side scratch, reused across batches so a training round
    // allocates nothing at steady state: the sampled slots, the batch
    // inputs, the Bellman targets (rows x targetWidth),
    // and the head's loss inputs and outputs (see ValueHead::loss).
    std::vector<std::size_t> sampled_;
    ml::Matrix stateBatch_;
    ml::Matrix nextBatch_;
    ml::Matrix targetBatch_;
    ml::Matrix gradOutM_;
    std::vector<float> rewards_;
    std::vector<double> perWeights_;
    std::vector<float> weights_;
    std::vector<std::uint32_t> actions_;
    std::vector<double> losses_;
    std::vector<float> priorities_;

    // Per-replay-entry cache of the Bellman target (reward and gamma
    // are entry-fixed, the inference net is frozen between syncs — see
    // AgentConfig::cacheNextValues). Slot-indexed alongside the ring;
    // flags cleared on weight sync, single slots on overwrite. Caching
    // the finished target skips the whole per-row head computation
    // for every resampled entry, not just the batched forward.
    ml::Matrix targetCache_;
    std::vector<std::uint8_t> targetValid_;
    std::vector<std::size_t> uncachedRows_; // gather scratch

    // Duplicate-state folding scratch (see
    // AgentConfig::foldDuplicateStates).
    std::vector<std::uint64_t> foldKeys_; // 0 = empty slot
    std::vector<std::uint32_t> foldVals_;
    std::vector<std::uint32_t> rowToUnique_;
    std::vector<std::size_t> uniqueIdx_;
};

} // namespace sibyl::rl
