/**
 * @file
 * Common reinforcement-learning agent interface and configuration.
 *
 * The paper motivates its function-approximation design (§4.1) against
 * the traditional tabular alternative: a lookup table of Q-values "can
 * lead to high storage and computation overhead for environments with
 * a large number of states". To make that trade-off measurable, every
 * agent in this repository — Sibyl's C51 and a plain
 * (non-distributional) DQN, both heads of the one neural ValueAgent
 * (rl/value_agent.hh), and a tabular Q-learning agent — implements
 * this interface and reports its storage footprint, and the
 * agent-ablation bench compares them head-to-head.
 */

#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ml/matrix.hh"
#include "rl/exploration.hh"
#include "rl/replay_buffer.hh"

namespace sibyl::ml
{
class Network;
}

namespace sibyl::rl
{

/**
 * Hyper-parameters shared by all agents (Table 2 defaults). Fields
 * that only apply to one family (atoms/vmin/vmax for C51; buffer and
 * network topology for the neural agents) are ignored by the others.
 */
struct AgentConfig
{
    std::uint32_t stateDim = 6;
    std::uint32_t numActions = 2;
    std::uint32_t atoms = 51;
    double vmin = 0.0;
    double vmax = 12.0;

    double gamma = 0.9;          ///< discount factor
    double learningRate = 1e-4;  ///< alpha
    double epsilon = 0.001;      ///< exploration rate

    /** Exploration strategy. For the default ConstantEpsilon kind the
     *  `epsilon` field above is authoritative (the paper's design); the
     *  other kinds are the exploration-ablation alternatives. */
    ExplorationConfig exploration;
    std::uint32_t batchSize = 128;
    std::uint32_t batchesPerTraining = 8;
    std::size_t bufferCapacity = 1000; ///< e_EB
    std::uint32_t targetSyncEvery = 1000; ///< requests between weight copies

    /** Observations between training rounds. 0 = train whenever the
     *  buffer wraps (every bufferCapacity observations, the paper's
     *  cadence). Smaller values train more often — useful on the
     *  scaled-down traces this repository replays. */
    std::uint32_t trainEvery = 0;

    /**
     * Decouple training from serving (neural agents): at each training
     * tick the agent *stages* a round — pre-sampling the minibatch
     * indices with the decision-path RNG (the same draws the
     * synchronous path makes), snapshotting the sampled transitions,
     * and freezing a private copy of the inference network as the
     * Bellman-target net — then executes it on the shadow training
     * network via the injected executor (setTrainingExecutor) while
     * serving continues. The round *commits* (join + stats fold) at
     * the next deterministic handoff point: the following training
     * tick, any weight-sync tick (always before the training network
     * is published to the inference network), finishTraining(), or
     * destruction. Decisions read only the inference network, which
     * changes only at sync ticks after every staged round has
     * committed — so results are bit-identical to synchronous
     * training at any thread count, with no executor at all (rounds
     * then run inline at their commit points), and to PR 7 serving.
     * Incompatible with prioritizedReplay (priority updates between
     * batches would change the pre-sampled draws) and VDBE exploration
     * (its epsilon consumes training-loss feedback at the tick);
     * agents reject those combinations at construction. Ignored by the
     * tabular agent, which learns per-observation.
     */
    bool asyncTraining = false;

    /** Hidden topology (paper: 20 and 30 swish neurons). */
    std::vector<std::size_t> hidden = {20, 30};

    /** Use Adam (TF-Agents default) instead of plain SGD. */
    bool useAdam = true;

    /**
     * Train each minibatch through the batched GEMM engine (3 batched
     * forwards + 1 batched backward per batch) instead of looping
     * per-sample matvec passes. Same math up to float summation order;
     * `false` selects the legacy per-sample path, kept as the
     * microbenchmark baseline and for A/B numerics tests.
     */
    bool batchedTraining = true;

    /**
     * Cache per-replay-entry Bellman targets computed from the frozen
     * inference network (batched training path only). Entries are
     * invalidated on ring overwrite and on every weight sync, so the
     * cached value always equals what a fresh evaluation would
     * produce — bit for bit, because the batched row kernels make
     * each row's result independent of batch composition. Resampling
     * rates here are high (each training round draws batchSize x
     * batchesPerTraining from a bufferCapacity ring), so most target
     * evaluations between syncs are repeats. Disabled automatically
     * for Double DQN, whose action selection tracks the training
     * network.
     */
    bool cacheNextValues = true;

    /**
     * Fold duplicate state rows inside each training minibatch
     * (batched path only): rows with byte-identical observations run
     * the forward and backward passes once, with their output
     * gradients summed first. Observations are coarsely binned
     * (Table 1), so sampled batches carry ~30% duplicate rows on real
     * traces. The folded gradient equals the unfolded one up to float
     * summation order (gradients are linear in the output gradient
     * for a fixed input row).
     */
    bool foldDuplicateStates = true;

    /** Deduplicate replay entries. */
    bool dedupBuffer = true;

    /** Prioritized experience replay (Schaul et al., 2016) instead of
     *  uniform sampling — an extension ablation over the paper's
     *  uniform replay (§6.2.1). */
    bool prioritizedReplay = false;
    double perAlpha = 0.6; ///< prioritization exponent
    double perBeta = 0.4;  ///< importance-weight exponent

    /** Double-DQN target (van Hasselt et al., 2016) for the DQN head:
     *  action selection by the training network, value by the frozen
     *  inference network. */
    bool doubleDqn = false;

    /** Tabular agent: quantization levels per state dimension. */
    std::uint32_t tableLevels = 64;

    std::uint64_t seed = 0xC51;
};

/**
 * Build the agent's exploration schedule from its configuration. For
 * the ConstantEpsilon kind, AgentConfig::epsilon wins over
 * ExplorationConfig::epsilon so that the paper-default code paths (and
 * the Fig. 14(c) epsilon sweep) keep a single knob.
 */
inline ExplorationSchedule
makeExploration(const AgentConfig &cfg)
{
    ExplorationConfig ec = cfg.exploration;
    if (ec.kind == ExplorationKind::ConstantEpsilon)
        ec.epsilon = cfg.epsilon;
    return ExplorationSchedule(ec);
}

/** Word-wise FNV-1a + splitmix64 finalizer over an observation's raw
 *  bytes — the batch-assembly key for AgentConfig::foldDuplicateStates
 *  (hash hits are verified by full comparison, so collisions cannot
 *  merge distinct states). */
inline std::uint64_t
hashObservation(const ml::Vector &v)
{
    // Shared WordHasher (see replay_buffer.hh). Hash hits in the fold
    // map are verified by full comparison anyway, so a collision can
    // only fail to fold a duplicate, never mis-fold.
    WordHasher hasher;
    hasher.mixBytes(v.data(), v.size() * sizeof(float));
    return hasher.finish();
}

/**
 * Build the duplicate-state fold mapping for one sampled minibatch
 * (AgentConfig::foldDuplicateStates): rows whose observations are
 * byte-identical share a unique row. Flat linear-probe map sized 2x
 * the batch; hash hits are verified by comparing the vectors, so a
 * collision can only fail to fold, never mis-fold. Used by
 * ValueAgent's minibatch trainer. @p stateOf maps a sampled row number
 * to its observation (the live replay ring for synchronous rounds,
 * the staged snapshot for asynchronous ones — identical bytes, so
 * identical folds). Returns the unique-row count; rowToUnique[r] maps
 * each sampled row to its unique row, and uniqueIdx lists the sampled
 * row number each unique row came from.
 */
template <typename StateOf>
inline std::size_t
buildStateFoldMapRows(StateOf &&stateOf, std::size_t batch,
                      std::vector<std::uint64_t> &foldKeys,
                      std::vector<std::uint32_t> &foldVals,
                      std::vector<std::uint32_t> &rowToUnique,
                      std::vector<std::size_t> &uniqueIdx)
{
    std::size_t cap = 16;
    while (cap < batch * 2)
        cap <<= 1;
    foldKeys.assign(cap, 0);
    foldVals.resize(cap);
    rowToUnique.resize(batch);
    uniqueIdx.clear();
    for (std::size_t r = 0; r < batch; r++) {
        const ml::Vector &st = stateOf(r);
        std::uint64_t h = hashObservation(st);
        h += h == 0; // 0 is the empty-slot sentinel
        std::size_t slot = h & (cap - 1);
        std::uint32_t ui = 0xFFFFFFFFu;
        while (foldKeys[slot] != 0) {
            if (foldKeys[slot] == h && stateOf(uniqueIdx[foldVals[slot]]) == st) {
                ui = foldVals[slot];
                break;
            }
            slot = (slot + 1) & (cap - 1);
        }
        if (ui == 0xFFFFFFFFu) {
            ui = static_cast<std::uint32_t>(uniqueIdx.size());
            uniqueIdx.push_back(r);
            foldKeys[slot] = h;
            foldVals[slot] = ui;
        }
        rowToUnique[r] = ui;
    }
    return uniqueIdx.size();
}

/** Training/behaviour statistics for tests and the overhead bench. */
struct AgentStats
{
    std::uint64_t decisions = 0;
    std::uint64_t randomActions = 0;
    std::uint64_t trainingRounds = 0;
    std::uint64_t gradientSteps = 0;
    std::uint64_t weightSyncs = 0;
    double lastLoss = 0.0;
};

/**
 * Abstract value-learning agent. Drive it with selectAction() for
 * each decision and observe() for each completed transition; learning
 * happens inside observe() at the agent's own cadence.
 */
class Agent
{
  public:
    virtual ~Agent() = default;

    /** Display name ("C51", "DQN", "Q-table"). */
    virtual std::string name() const = 0;

    /** Epsilon-greedy action for @p state. */
    virtual std::uint32_t selectAction(const ml::Vector &state) = 0;

    /**
     * Phase 1 of a batched decision. Performs every RNG draw and
     * bookkeeping step selectAction() would (in the same order), and
     * returns true when the action was fully decided without a greedy
     * network evaluation (exploration fired, or the agent family has
     * no batchable network). Returns false when the caller must
     * evaluate batchNetwork() on @p state — alone via inferRow, or
     * gathered with other agents' rows via ml::inferRowBatch — and
     * finish with selectActionFromRow(). selectAction() ==
     * selectActionBegin() + inferRow + selectActionFromRow() by
     * construction, so batching can never perturb a decision. The
     * default covers non-batchable agents by resolving inline.
     */
    virtual bool
    selectActionBegin(const ml::Vector &state, std::uint32_t &action)
    {
        action = selectAction(state);
        return true;
    }

    /** Phase 2: decode the greedy action from this agent's
     *  batchNetwork() output row for the state passed to
     *  selectActionBegin(). Only called after Begin returned false. */
    virtual std::uint32_t
    selectActionFromRow(const float *row)
    {
        (void)row;
        return 0; // unreachable for agents whose Begin always completes
    }

    /** The network whose output row selectActionFromRow() consumes
     *  (the frozen inference net), or nullptr for agent families with
     *  no batchable network (tabular). */
    virtual ml::Network *batchNetwork() { return nullptr; }

    /** Greedy action (no exploration) — used by evaluation probes. */
    virtual std::uint32_t greedyAction(const ml::Vector &state) = 0;

    /** Q-value estimates per action. */
    virtual std::vector<double> qValues(const ml::Vector &state) = 0;

    /** Record a transition (and learn, at the agent's cadence). */
    virtual void observe(Experience e) = 0;

    /**
     * Allocation-free variant of observe() for the request path: the
     * caller keeps ownership of the buffers and the agent copies the
     * transition into its replay ring in place. Semantically identical
     * to observe(Experience) — the default implementation packs an
     * Experience; the neural agents override it with the in-place
     * ring insert.
     */
    virtual void
    observeTransition(const ml::Vector &state, std::uint32_t action,
                      float reward, const ml::Vector &nextState)
    {
        Experience e;
        e.state = state;
        e.action = action;
        e.reward = reward;
        e.nextState = nextState;
        observe(std::move(e));
    }

    /** Force one training round (for tests); returns the mean loss. */
    virtual double trainRound() = 0;

    /** Executor for AgentConfig::asyncTraining rounds: invoked with a
     *  self-contained job to run on some other thread (e.g. a
     *  ThreadPool::submit wrapper). */
    using TrainingExecutor = std::function<void(std::function<void()>)>;

    /** Inject the executor asynchronous training rounds run on. With
     *  none injected, staged rounds execute inline at their commit
     *  points — the single-threaded oracle. No-op for synchronous
     *  agents (the default). */
    virtual void setTrainingExecutor(TrainingExecutor exec) { (void)exec; }

    /** Commit any staged asynchronous training round (join + stats
     *  fold). Call before reading final stats, checkpointing, or
     *  comparing weights; no-op for synchronous agents. */
    virtual void finishTraining() {}

    /** Behaviour counters. */
    virtual const AgentStats &stats() const = 0;

    /** Change the exploration rate online (mixed-workload tuning). */
    virtual void setEpsilon(double eps) = 0;

    /** Change the learning rate online (Sibyl_Opt uses 1e-5). */
    virtual void setLearningRate(double lr) = 0;

    /**
     * Bytes of state the agent needs to persist its learned policy —
     * the §10.2-style storage-overhead number (fp16 network weights,
     * replay buffer at 100 bits/entry, or table entries).
     */
    virtual std::size_t storageBytes() const = 0;

    /**
     * Restrict decisions to the actions whose bit is set in @p mask
     * (bit a = action a allowed). The serving layer threads its device
     * placement mask through here before each decision so a learning
     * policy never places data on an unhealthy device; the mask is
     * sticky until changed. Contract: a mask covering every configured
     * action selects the legacy decision paths bit for bit — the same
     * RNG draws and the same first-max tie-breaks — so fault-free runs
     * are unchanged. Training-side argmaxes (Bellman targets, Double
     * DQN selection) are never masked: the value function keeps
     * learning about every action, and an action that heals mid-run is
     * immediately competitive again. Zero would mean "no action is
     * allowed" and asserts (the serving layer panics before offering
     * such a mask).
     */
    void setActionMask(std::uint32_t mask)
    {
        assert(mask != 0);
        actionMask_ = mask;
    }

    /** The current decision restriction (all-ones = unrestricted). */
    std::uint32_t actionMask() const { return actionMask_; }

  protected:
    /** True when @p mask allows every action in [0, numActions) — the
     *  gate for the legacy (mask-free) decision paths. */
    static bool
    maskCoversAll(std::uint32_t mask, std::uint32_t numActions)
    {
        const std::uint32_t full = numActions >= 32
            ? 0xFFFFFFFFu
            : ((1u << numActions) - 1u);
        return (mask & full) == full;
    }

    /** Index of the @p n-th (0-based) set bit of @p mask — maps a draw
     *  over the allowed-action count back to an action id. */
    static std::uint32_t
    nthSetBit(std::uint32_t mask, std::uint32_t n)
    {
        assert(n < static_cast<std::uint32_t>(std::popcount(mask)));
        for (std::uint32_t i = 0; i < n; i++)
            mask &= mask - 1; // clear lowest set bit
        return static_cast<std::uint32_t>(std::countr_zero(mask));
    }

    /** Allowed-action restriction for decisions (never training). */
    std::uint32_t actionMask_ = 0xFFFFFFFFu;
};

} // namespace sibyl::rl
