/**
 * @file
 * Sibyl — the paper's contribution — as a PlacementPolicy.
 *
 * Wires together the observation encoder (Table 1), the reward function
 * (Eq. 1), and the C51 agent with its dual-network arrangement
 * (Fig. 7). For every request it (1) completes the previous transition
 * with the newly observed state and hands it to the agent, (2) encodes
 * the current state, and (3) asks the agent for an epsilon-greedy
 * placement — Algorithm 1 verbatim. Extending to N devices only grows
 * the action space and adds the extra capacity feature (§8.7).
 */

#pragma once

#include <memory>

#include "core/reward.hh"
#include "core/sibyl_config.hh"
#include "core/state.hh"
#include "policies/policy.hh"
#include "rl/agent.hh"
#include "rl/c51_agent.hh"
#include "rl/guardrail.hh"

namespace sibyl::core
{

/** The Sibyl RL data-placement policy. */
class SibylPolicy : public policies::PlacementPolicy
{
  public:
    /**
     * @param cfg        Hyper-parameters and feature configuration.
     * @param numDevices Devices in the target system (actions).
     * @param displayName Legend name ("Sibyl", "Sibyl_Opt", ...).
     */
    SibylPolicy(const SibylConfig &cfg, std::uint32_t numDevices,
                std::string displayName = "Sibyl");

    std::string name() const override { return displayName_; }

    DeviceId selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex) override;

    /** Split-decision phases (see PlacementPolicy): Begin runs the
     *  guardrail/encode/observe/exploration steps, FromRow decodes the
     *  greedy action from the inference network's output row. */
    ml::Network *selectPlacementBegin(const hss::HybridSystem &sys,
                                      const trace::Request &req,
                                      std::size_t reqIndex,
                                      DeviceId &action,
                                      const float **obsRow) override;
    DeviceId selectPlacementFromRow(const float *row) override;

    void observeOutcome(const hss::HybridSystem &sys,
                        const trace::Request &req, DeviceId action,
                        const hss::ServeResult &result) override;

    void reset() override;

    /** The underlying value learner (family per cfg.agentKind). */
    rl::Agent &agent() { return *agent_; }

    /** The C51 agent; panics when cfg.agentKind is not C51 (used by
     *  tests and benches that poke C51-specific state). */
    rl::C51Agent &c51();
    const StateEncoder &encoder() const { return encoder_; }
    const SibylConfig &config() const { return cfg_; }

    /** The agent-health guardrail, or nullptr when not enabled. */
    const rl::Guardrail *guardrail() const { return guardrail_.get(); }

  private:
    void tripGuardrail(const std::string &reason);

    /** Shared decision tail: record the pending transition, run the
     *  guardrail, return the chosen device. */
    DeviceId finishDecision(std::uint32_t action);

    SibylConfig cfg_;
    std::uint32_t numDevices_;
    std::string displayName_;
    StateEncoder encoder_;
    RewardFunction reward_;
    std::unique_ptr<rl::Agent> agent_;

    // Pending transition: Sibyl's reward is delayed — the experience
    // (O_t, a_t, r_t, O_{t+1}) completes only when the next request
    // reveals O_{t+1}.
    bool pendingValid_ = false;
    ml::Vector pendingState_;
    std::uint32_t pendingAction_ = 0;
    float pendingReward_ = 0.0f;

    // Reused per-request observation buffer (swapped with
    // pendingState_ each request, so neither ever reallocates).
    ml::Vector obs_;

    // Run supervision (null unless cfg.guardrail.enabled): the
    // guardrail state machine, the heuristic that serves fallback
    // windows, and the completed-transition counter driving the
    // deterministic NaN-reward fault injection.
    std::unique_ptr<rl::Guardrail> guardrail_;
    std::unique_ptr<policies::PlacementPolicy> fallback_;
    std::uint64_t completedTransitions_ = 0;
};

} // namespace sibyl::core
