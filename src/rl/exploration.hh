/**
 * @file
 * Exploration strategies for the value-learning agents.
 *
 * The paper balances exploration and exploitation with a *constant*
 * epsilon-greedy policy (§6.2.1, Table 2: epsilon = 0.001) and sweeps
 * that constant in Fig. 14(c). This module generalizes the knob into a
 * pluggable schedule so the exploration-ablation bench can compare the
 * paper's choice against the standard alternatives from the DQN
 * literature:
 *
 *  - ConstantEpsilon   — the paper's design (default; bit-identical
 *                        behaviour to the original hard-coded path),
 *  - LinearDecay       — epsilon anneals linearly from a start value to
 *                        a floor over a fixed number of decisions
 *                        (Mnih et al., 2015),
 *  - ExponentialDecay  — epsilon halves every `halfLifeSteps` decisions
 *                        until it reaches the floor,
 *  - Boltzmann         — softmax action sampling over Q-values at a
 *                        fixed temperature (Tokic & Palm [134] compare
 *                        epsilon-greedy against exactly this family),
 *  - Vdbe              — value-difference based exploration (Tokic,
 *                        2010; the adaptive-control idea behind the
 *                        paper's citation [134]): epsilon rises while
 *                        the value function is still changing and
 *                        anneals itself once learning converges, with
 *                        no hand-tuned decay horizon.
 *
 * An online workload has no episode boundary, so the decaying
 * schedules are indexed by the agent's lifetime decision count and
 * VDBE reacts to the live training signal instead.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace sibyl::rl
{

/** Which exploration strategy an agent uses. */
enum class ExplorationKind : std::uint8_t
{
    ConstantEpsilon,  ///< fixed epsilon (the paper's design)
    LinearDecay,      ///< epsilonStart -> epsilonFloor over decaySteps
    ExponentialDecay, ///< epsilon halves every halfLifeSteps
    Boltzmann,        ///< softmax over Q-values at fixed temperature
    Vdbe,             ///< epsilon adapts to the value-update magnitude
};

/** Human-readable name for an ExplorationKind. */
const char *explorationKindName(ExplorationKind kind);

/** Exploration hyper-parameters. Defaults reproduce Table 2. */
struct ExplorationConfig
{
    ExplorationKind kind = ExplorationKind::ConstantEpsilon;

    /** The one exploration rate (Table 2: 0.001). Constant kind: the
     *  rate itself. Decaying kinds: the floor the decay converges to.
     *  Vdbe: the floor of the adaptive rate. Unused by Boltzmann.
     *  Agent::setEpsilon() writes it. */
    double epsilon = 0.001;

    /** Decaying kinds: initial epsilon. */
    double epsilonStart = 0.5;

    /** LinearDecay: decisions until epsilon reaches the floor. */
    std::uint64_t decaySteps = 20000;

    /** ExponentialDecay: decisions per halving of (epsilon - floor). */
    std::uint64_t halfLifeSteps = 5000;

    /** Boltzmann: softmax temperature. Smaller is greedier; as the
     *  temperature approaches 0 the policy becomes argmax. */
    double temperature = 0.05;

    /** Vdbe: inverse sensitivity sigma. Smaller values make epsilon
     *  react to smaller value updates (more exploration while any
     *  learning is happening). */
    double vdbeSigma = 0.5;

    /** Vdbe: step size delta blending the new exploration impulse into
     *  the running epsilon (Tokic uses 1/|A|). */
    double vdbeDelta = 0.3;
};

/**
 * Evaluates an ExplorationConfig over the agent's decision index and
 * performs the Boltzmann draw when that kind is selected.
 *
 * The schedule is stateless with respect to the action stream: agents
 * pass their own decision counter, which keeps checkpoint/restore
 * trivial (the counter is already part of AgentStats).
 */
class ExplorationSchedule
{
  public:
    explicit ExplorationSchedule(ExplorationConfig cfg = ExplorationConfig());

    /** Effective epsilon for decision number @p step (0-based). For the
     *  Boltzmann kind this returns 0 (exploration happens inside
     *  sampleBoltzmann(), not via random override). For Vdbe it
     *  returns the current adaptive epsilon regardless of @p step. */
    double epsilonAt(std::uint64_t step) const;

    /**
     * Vdbe feedback: report the magnitude of the latest value-function
     * *movement* — the applied Q-value change |alpha * TD| for the
     * tabular agent, or the round-to-round training-loss delta for the
     * neural agents (raw losses keep a noise/entropy floor at
     * convergence and must not be fed directly). Epsilon moves toward
     *   f = (1 - e^(-|delta|/sigma)) / (1 + e^(-|delta|/sigma))
     * by step size vdbeDelta, so it stays high while the value
     * estimates are in flux and anneals toward the floor as updates
     * shrink. No-op for the other kinds.
     */
    void observeValueDelta(double magnitude);

    /** True when actions should be drawn with sampleBoltzmann(). */
    bool isBoltzmann() const
    {
        return cfg_.kind == ExplorationKind::Boltzmann;
    }

    /**
     * Draw an action from softmax(q / temperature).
     *
     * @param q   Q-value estimate per action (size >= 1).
     * @param p   Caller-owned scratch; receives
     *            boltzmannProbabilities(q), so a warm buffer makes the
     *            draw allocation-free.
     * @param rng Agent RNG.
     */
    std::uint32_t sampleBoltzmann(const std::vector<double> &q,
                                  std::vector<double> &p, Pcg32 &rng) const;

    /**
     * Softmax action probabilities of @p q at the configured
     * temperature into @p p (resized to q.size()).
     */
    void boltzmannProbabilities(const std::vector<double> &q,
                                std::vector<double> &p) const;

    /**
     * Re-pin the schedule to a constant epsilon. Implements the
     * Agent::setEpsilon() contract (online tuning, e.g. the
     * mixed-workload experiments) uniformly across kinds.
     */
    void overrideConstant(double eps);

    const ExplorationConfig &config() const { return cfg_; }

  private:
    ExplorationConfig cfg_;

    /** Vdbe running epsilon (starts at epsilonStart). */
    double vdbeEpsilon_;
};

} // namespace sibyl::rl
