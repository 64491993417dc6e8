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

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
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

    /** Exploration strategy. Its `epsilon` is the only exploration
     *  rate: the rate itself for the default ConstantEpsilon kind (the
     *  paper's design), the floor for the decaying and VDBE kinds, and
     *  unused by Boltzmann. */
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

    /** Hidden topology (paper: 20 and 30 swish neurons). */
    std::vector<std::size_t> hidden = {20, 30};

    /**
     * Cache per-replay-entry Bellman targets computed from the frozen
     * inference network. Entries are invalidated on ring overwrite and
     * on every weight sync, so the cached value always equals what a
     * fresh evaluation would produce — bit for bit, because the
     * batched row kernels make each row's result independent of batch
     * composition. Resampling rates here are high (each training round
     * draws batchSize x batchesPerTraining from a bufferCapacity ring),
     * so most target evaluations between syncs are repeats. Disabled
     * automatically for Double DQN, whose action selection tracks the
     * training network.
     */
    bool cacheNextValues = true;

    /**
     * Fold duplicate state rows inside each training minibatch: rows
     * with byte-identical observations run the forward and backward
     * passes once, with their output gradients summed first.
     * Observations are coarsely binned (Table 1), so sampled batches
     * carry ~30% duplicate rows on real traces. The folded gradient
     * equals the unfolded one up to float summation order (gradients
     * are linear in the output gradient for a fixed input row).
     */
    bool foldDuplicateStates = true;

    /** Deduplicate replay entries. */
    bool dedupBuffer = true;

    /** Prioritized experience replay (Schaul et al., 2016) instead of
     *  uniform sampling — an extension ablation over the paper's
     *  uniform replay (§6.2.1). */
    bool prioritizedReplay = false;

    /** Double-DQN target (van Hasselt et al., 2016) for the DQN head:
     *  action selection by the training network, value by the frozen
     *  inference network. */
    bool doubleDqn = false;

    /** Tabular agent: quantization levels per state dimension. */
    std::uint32_t tableLevels = 64;

    std::uint64_t seed = 0xC51;
};

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
 * to its observation in the replay ring. Returns the unique-row count;
 * rowToUnique[r] maps each sampled row to its unique row, and
 * uniqueIdx lists the sampled row number each unique row came from.
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
 *
 * The base owns what every family shares: the configuration, the
 * exploration schedule, the decision RNG (one stream salt per family),
 * the behaviour counters, the action mask, and the one exploration
 * step (explore()) that every family's decision begins with.
 */
class Agent
{
  public:
    virtual ~Agent() = default;

    /** Display name ("C51", "DQN", "Q-table"). */
    virtual std::string name() const = 0;

    /** Exploring action for @p state (see explore()). */
    virtual std::uint32_t selectAction(const ml::Vector &state) = 0;

    /**
     * Phase 1 of a split decision. Performs every RNG draw and
     * bookkeeping step selectAction() would (in the same order), and
     * returns true when the action was fully decided without a greedy
     * network evaluation (exploration fired, or the agent family has
     * no decision network). Returns false when the caller must
     * evaluate batchNetwork() on @p state via inferRow and finish with
     * selectActionFromRow(). selectAction() == selectActionBegin() +
     * inferRow + selectActionFromRow() by construction, so the split
     * can never perturb a decision. The default covers agents without
     * a decision network by resolving inline.
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
     *  no decision network (tabular). */
    virtual ml::Network *batchNetwork() { return nullptr; }

    /** Greedy action (no exploration) — used by evaluation probes. */
    virtual std::uint32_t greedyAction(const ml::Vector &state) = 0;

    /** Q-value estimates per action. */
    virtual std::vector<double> qValues(const ml::Vector &state) = 0;

    /**
     * Record the transition (@p state, @p action, @p reward,
     * @p nextState) and learn at the agent's cadence. The caller keeps
     * ownership of the vectors: the neural agents copy them into their
     * replay ring in place, so the request path allocates nothing at
     * steady state.
     */
    virtual void observe(const ml::Vector &state, std::uint32_t action,
                         float reward, const ml::Vector &nextState) = 0;

    /** Force one training round (for tests); returns the mean loss. */
    virtual double trainRound() = 0;

    /** Change the learning rate online (Sibyl_Opt uses 1e-5). */
    virtual void setLearningRate(double lr) = 0;

    /**
     * Bytes of state the agent needs to persist its learned policy —
     * the §10.2-style storage-overhead number (fp16 network weights,
     * replay buffer at 100 bits/entry, or table entries).
     */
    virtual std::size_t storageBytes() const = 0;

    /** Behaviour counters. */
    const AgentStats &stats() const { return stats_; }

    /** The configuration the agent was built with (setEpsilon() and
     *  setLearningRate() write through to it). */
    const AgentConfig &config() const { return cfg_; }

    /** The exploration schedule in effect. */
    const ExplorationSchedule &exploration() const { return explore_; }

    /** Change the exploration rate online (mixed-workload tuning).
     *  Re-pins the schedule to a constant epsilon. */
    void
    setEpsilon(double eps)
    {
        cfg_.exploration.epsilon = eps;
        explore_.overrideConstant(eps);
    }

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
    /** @p rngSalt is the family's Pcg32 stream id for decisions and
     *  replay sampling, part of its bit-exact identity.
     *  @throws std::invalid_argument for an invalid exploration
     *  configuration. */
    Agent(const AgentConfig &cfg, std::uint64_t rngSalt)
        : cfg_(cfg), explore_(cfg.exploration), rng_(cfg.seed, rngSalt)
    {
    }

    /**
     * The exploration step every decision begins with. Counts the
     * decision, then either draws an action — a Boltzmann sample over
     * the Q-values that @p fillQ writes into its double* argument
     * (numActions of them; only called for that kind), or an
     * epsilon-greedy random action — and returns true, or returns
     * false when the caller must take the greedy action. Draws that
     * differ from the greedy choice count as random actions. A
     * restricting mask narrows each draw to the allowed actions; a
     * full mask leaves the RNG stream untouched.
     */
    template <typename FillQ>
    bool
    explore(FillQ &&fillQ, std::uint32_t &action)
    {
        const std::uint64_t step = stats_.decisions++;
        const bool restricted = !maskCoversAll(actionMask_,
                                               cfg_.numActions);
        if (explore_.isBoltzmann()) {
            qScratch_.resize(cfg_.numActions);
            fillQ(qScratch_.data());
            if (restricted) {
                // Compact the allowed actions (in place: the i-th
                // allowed action is never left of i), sample over
                // them, map the sampled index back to an action id.
                const auto allowed = static_cast<std::uint32_t>(
                    std::popcount(actionMask_));
                for (std::uint32_t i = 0; i < allowed; i++)
                    qScratch_[i] = qScratch_[nthSetBit(actionMask_, i)];
                qScratch_.resize(allowed);
            }
            const auto greedy = static_cast<std::uint32_t>(
                std::max_element(qScratch_.begin(), qScratch_.end()) -
                qScratch_.begin());
            const std::uint32_t idx =
                explore_.sampleBoltzmann(qScratch_, probScratch_, rng_);
            if (idx != greedy)
                stats_.randomActions++;
            action = restricted ? nthSetBit(actionMask_, idx) : idx;
            return true;
        }
        if (rng_.nextBool(explore_.epsilonAt(step))) {
            stats_.randomActions++;
            // One bounded draw either way; a restricting mask only
            // narrows the range, so the fault-free RNG stream is
            // untouched.
            action = restricted
                ? nthSetBit(actionMask_,
                            rng_.nextBounded(static_cast<std::uint32_t>(
                                std::popcount(actionMask_))))
                : rng_.nextBounded(cfg_.numActions);
            return true;
        }
        return false;
    }

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

    AgentConfig cfg_;
    ExplorationSchedule explore_;
    Pcg32 rng_;
    AgentStats stats_;

    /** Allowed-action restriction for decisions (never training). */
    std::uint32_t actionMask_ = 0xFFFFFFFFu;

  private:
    // Boltzmann scratch: the Q vector and its action probabilities.
    std::vector<double> qScratch_, probScratch_;
};

} // namespace sibyl::rl
