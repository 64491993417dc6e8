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
 * ValueAgent owns everything the variants share: exploration and
 * action masking, the replay buffer and training cadence, weight
 * syncs, the per-entry Bellman-target cache, duplicate-state folding,
 * prioritized-replay weights, the staged asynchronous round, and one
 * minibatch trainer. A ValueHead owns only what differs: how an output
 * row decodes into per-action values and a greedy action, how a
 * next-state row becomes a Bellman target, and the per-row loss. A new
 * head is one small class (see C51Head and DqnHead).
 */

#pragma once

#include <future>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "rl/agent.hh"
#include "rl/checkpoint.hh"
#include "rl/replay_buffer.hh"

namespace sibyl::rl
{

/**
 * What one value-learning variant contributes to ValueAgent.
 *
 * Threading contract: the decision-side methods (greedy, actionValue)
 * run on the serving thread; the training-side methods (target, loss)
 * run wherever the training round executes, which for an asynchronous
 * round is another thread while decisions continue. A head must keep
 * separate scratch for the two sides.
 */
class ValueHead
{
  public:
    /** Pcg32 stream ids: the agent's decision/sampling RNG and the
     *  initial weights of the training and inference networks. Part of
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

    /** Q-value estimate of action @p a from an output row. */
    virtual double actionValue(const float *row, std::uint32_t a) = 0;

    /** Bellman target for one transition into @p out (targetWidth()
     *  floats), from the target network's next-state row @p evalRow
     *  and, for selectsWithTrainingNet() heads, the training network's
     *  next-state row @p selRow (null otherwise). */
    virtual void target(const float *evalRow, const float *selRow,
                        float reward, float *out) = 0;

    /** Loss of the training network's output row @p outRow for the
     *  taken @p action against @p target. Accumulates the gradient
     *  times @p weight into @p gradRow (the full output row) and
     *  reports the transition's new replay @p priority. */
    virtual double loss(const float *outRow, std::uint32_t action,
                        const float *target, float weight, float *gradRow,
                        float &priority) = 0;

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
     *  cadence, and for asyncTraining combined with prioritized replay
     *  or VDBE exploration. */
    ValueAgent(const AgentConfig &cfg, std::unique_ptr<ValueHead> head);
    ~ValueAgent() override;
    // A staged round's task holds `this`.
    ValueAgent(const ValueAgent &) = delete;
    ValueAgent &operator=(const ValueAgent &) = delete;

    std::string name() const override { return head_->name(); }

    /** Epsilon-greedy action for @p state using the inference network. */
    std::uint32_t selectAction(const ml::Vector &state) override;

    /** Batched-decision phases (see Agent): Begin makes the RNG draws,
     *  FromRow decodes the greedy action from an inference-network
     *  output row produced elsewhere (inferRow or ml::inferRowBatch). */
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
    void observe(Experience e) override;

    /** Allocation-free observe (see Agent::observeTransition). */
    void observeTransition(const ml::Vector &state, std::uint32_t action,
                           float reward,
                           const ml::Vector &nextState) override;

    /** Force one training round (for tests). Commits any staged
     *  asynchronous round first. */
    double trainRound() override;

    /** Async-training hooks (see Agent / AgentConfig::asyncTraining). */
    void setTrainingExecutor(TrainingExecutor exec) override;
    void finishTraining() override;

    /** Force a training-to-inference weight copy (for tests).
     *  Invalidates the cached Bellman targets. */
    void syncWeights();

    const AgentConfig &config() const { return cfg_; }
    const AgentStats &stats() const override { return stats_; }
    const ValueHead &head() const { return *head_; }
    const ReplayBuffer &buffer() const { return buffer_; }
    ml::Network &inferenceNetwork() { return *inferenceNet_; }
    ml::Network &trainingNetwork() { return *trainingNet_; }
    const ml::Network &inferenceNetwork() const { return *inferenceNet_; }
    const ml::Network &trainingNetwork() const { return *trainingNet_; }

    /** Change the exploration rate online (mixed-workload tuning).
     *  Re-pins the schedule to a constant epsilon. */
    void
    setEpsilon(double eps) override
    {
        cfg_.epsilon = eps;
        explore_.overrideConstant(eps);
    }

    /** The exploration schedule in effect. */
    const ExplorationSchedule &exploration() const { return explore_; }
    /** Change the learning rate online (Sibyl_Opt uses 1e-5). */
    void setLearningRate(double lr) override;

    /** fp16 weights of both networks + the 100-bit/entry replay buffer
     *  (the paper's 124.4 KiB accounting, §10.2). */
    std::size_t storageBytes() const override;

  private:
    /** Training-cadence/weight-sync bookkeeping shared by both
     *  observe paths. */
    void afterObserve();

    /** Sample one minibatch from the ring and take one gradient step
     *  on it; returns the mean loss. */
    double trainBatch();

    /**
     * The minibatch trainer: one gradient step over batchRows_. With
     * @p slots (the rows' replay-ring indices) the rows are live ring
     * entries: the Bellman-target cache and prioritized replay apply
     * as configured. Without, the rows are a staged snapshot and every
     * target is recomputed from @p targetNet. Touches only
     * training-side state, so a staged round may run it off-thread.
     */
    double trainMinibatch(const std::vector<std::size_t> *slots,
                          ml::Network &targetNet);

    /** Per-sample reference for trainMinibatch (batchedTraining=false):
     *  one forward/backward chain per sampled row. Kept as the baseline
     *  for the training microbenchmark and the A/B numerics tests. */
    double trainPerSample(const std::vector<std::size_t> &indices);

    /** Stage an asynchronous round at a training tick: pre-sample the
     *  minibatch indices with the decision-path RNG (the exact draws
     *  the synchronous round would make), snapshot the sampled
     *  transitions, freeze a private copy of the inference network as
     *  the Bellman-target net, and dispatch via the executor. */
    void stageRound();

    /** Commit the staged round: join (or run inline), then fold loss
     *  and counters into stats_ exactly as trainRound() does. Runs at
     *  the next training tick, any sync tick (before weights publish),
     *  finishTraining(), and destruction. */
    void commitStagedRound();

    /** Round body; may execute on the executor thread. Touches only
     *  training-side state (trainingNet_, optimizer_, batch scratch,
     *  the staged snapshot) — never the serving side. */
    void runStagedRound();

    /** Fold one finished round's summed loss into stats_ and feed the
     *  head's VDBE delta to the exploration schedule. */
    void foldRound(double lossSum);

    AgentConfig cfg_;
    std::unique_ptr<ValueHead> head_;
    ExplorationSchedule explore_;
    Pcg32 rng_;
    ReplayBuffer buffer_;
    std::unique_ptr<ml::Network> inferenceNet_;
    std::unique_ptr<ml::Network> trainingNet_;
    std::unique_ptr<ml::Optimizer> optimizer_;
    AgentStats stats_;
    std::uint64_t observations_ = 0;

    // Reused batch-assembly scratch (no steady-state allocation).
    std::vector<const Experience *> batchRows_;
    ml::Matrix stateBatch_;
    ml::Matrix nextBatch_;
    ml::Matrix targetBatch_;
    ml::Matrix gradOutM_;

    // Decision-path scratch: the full Q vector for Boltzmann draws.
    std::vector<double> qScratch_;

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

    // Asynchronous-round state (cfg.asyncTraining). Staged on the
    // serving thread, executed wherever the executor runs the job,
    // joined back on the serving thread at the commit points — so no
    // field here is ever touched from two threads at once.
    TrainingExecutor trainExec_;
    bool roundStaged_ = false;
    std::future<void> stagedFuture_;
    std::vector<std::vector<std::size_t>> stagedBatches_;
    std::vector<Experience> stagedExp_; // snapshot, reused across rounds
    std::unique_ptr<ml::Network> asyncTargetNet_;
    double stagedLoss_ = 0.0;
    std::uint64_t stagedGradSteps_ = 0;
};

} // namespace sibyl::rl
