#include "core/sibyl_policy.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "policies/cde.hh"
#include "policies/hps.hh"
#include "rl/checkpoint.hh"
#include "rl/dqn_agent.hh"
#include "rl/q_table.hh"

namespace sibyl::core
{

namespace
{

std::unique_ptr<policies::PlacementPolicy>
makeFallbackPolicy(const std::string &name)
{
    if (name == "CDE")
        return std::make_unique<policies::CdePolicy>();
    if (name == "HPS")
        return std::make_unique<policies::HpsPolicy>();
    throw std::invalid_argument(
        "guardrail fallback \"" + name + "\": expected CDE or HPS");
}

rl::AgentConfig
makeAgentConfig(const SibylConfig &cfg, std::uint32_t stateDim,
                std::uint32_t numDevices)
{
    rl::AgentConfig ac;
    ac.stateDim = stateDim;
    ac.numActions = numDevices;
    ac.atoms = cfg.atoms;
    ac.vmin = cfg.vmin;
    ac.vmax = cfg.vmax;
    ac.gamma = cfg.gamma;
    ac.learningRate = cfg.learningRate;
    ac.exploration = cfg.exploration;
    ac.batchSize = cfg.batchSize;
    ac.batchesPerTraining = cfg.batchesPerTraining;
    ac.bufferCapacity = cfg.bufferCapacity;
    ac.targetSyncEvery = cfg.targetSyncEvery;
    ac.trainEvery = cfg.trainEvery;
    ac.hidden = cfg.hidden;
    ac.prioritizedReplay = cfg.prioritizedReplay;
    ac.doubleDqn = cfg.doubleDqn;
    ac.seed = cfg.seed;
    return ac;
}

std::unique_ptr<rl::Agent>
makeAgent(const SibylConfig &cfg, std::uint32_t stateDim,
          std::uint32_t numDevices)
{
    const rl::AgentConfig ac = makeAgentConfig(cfg, stateDim, numDevices);
    switch (cfg.agentKind) {
      case AgentKind::C51:
        return std::make_unique<rl::C51Agent>(ac);
      case AgentKind::Dqn:
        return std::make_unique<rl::DqnAgent>(ac);
      case AgentKind::QTable:
        return std::make_unique<rl::QTableAgent>(ac);
    }
    return std::make_unique<rl::C51Agent>(ac);
}

} // namespace

const char *
agentKindName(AgentKind kind)
{
    switch (kind) {
      case AgentKind::C51:
        return "C51";
      case AgentKind::Dqn:
        return "DQN";
      case AgentKind::QTable:
        return "Q-table";
    }
    return "?";
}

SibylPolicy::SibylPolicy(const SibylConfig &cfg, std::uint32_t numDevices,
                         std::string displayName)
    : cfg_(cfg),
      numDevices_(numDevices),
      displayName_(std::move(displayName)),
      encoder_(cfg.features, numDevices),
      reward_(cfg.reward)
{
    agent_ = makeAgent(cfg_, encoder_.dimension(), numDevices_);
    if (cfg_.guardrail.enabled) {
        guardrail_ = std::make_unique<rl::Guardrail>(cfg_.guardrail);
        fallback_ = makeFallbackPolicy(cfg_.guardrail.fallback);
    }
}

rl::C51Agent &
SibylPolicy::c51()
{
    auto *a = dynamic_cast<rl::C51Agent *>(agent_.get());
    if (!a)
        panic("SibylPolicy::c51(): agent kind is " +
              std::string(agentKindName(cfg_.agentKind)));
    return *a;
}

ml::Network *
SibylPolicy::selectPlacementBegin(const hss::HybridSystem &sys,
                                  const trace::Request &req,
                                  std::size_t reqIndex, DeviceId &action,
                                  const float **obsRow)
{
    // During a guardrail fallback window the heuristic serves the
    // request and training stays frozen (no transitions reach the
    // agent). fallbackTick() re-admits the learner for the *next*
    // request once the cool-down elapses.
    if (guardrail_ && guardrail_->inFallback()) {
        guardrail_->fallbackTick();
        action = fallback_->selectPlacement(sys, req, reqIndex);
        return nullptr;
    }
    (void)reqIndex;
    // Thread the serving layer's device-health mask into the agent so
    // this decision — greedy, epsilon, or Boltzmann — can only pick a
    // placement-accepting device. Skipped entirely when hard faults
    // are unarmed (the agent's default mask is unrestricted), and a
    // full mask selects the legacy decision path bit for bit, so
    // fault-free runs are unchanged.
    if (sys.hardFaultsArmed())
        agent_->setActionMask(sys.placementMask());
    // One observation buffer per policy, encoded in place; together
    // with the agent's in-place ring insert this keeps the whole
    // per-request decision path allocation-free at steady state.
    encoder_.encodeInto(sys, req, obs_);

    // The previous transition completes now that O_{t+1} is known
    // (Algorithm 1, line 15).
    if (pendingValid_) {
        completedTransitions_++;
        // Fault injection for the supervision tests: from transition N
        // onward the reward stream is NaN, modeling a broken reward
        // function. Poisoning a single entry would leave the trip at
        // the mercy of replay sampling; a poisoned stream makes the
        // next training round non-finite with certainty.
        if (guardrail_ &&
            cfg_.guardrail.injectNanRewardAt != 0 &&
            completedTransitions_ >= cfg_.guardrail.injectNanRewardAt)
            pendingReward_ = std::numeric_limits<float>::quiet_NaN();
        agent_->observe(pendingState_, pendingAction_, pendingReward_,
                        obs_);
    }

    std::uint32_t a = 0;
    if (agent_->selectActionBegin(obs_, a)) {
        action = finishDecision(a);
        return nullptr;
    }
    // Greedy decision: hand the caller the encoded observation (obs_
    // stays untouched until the row is evaluated — finishDecision only
    // swaps it away in FromRow) and the network to evaluate it on.
    *obsRow = obs_.data();
    return agent_->batchNetwork();
}

DeviceId
SibylPolicy::selectPlacementFromRow(const float *row)
{
    return finishDecision(agent_->selectActionFromRow(row));
}

DeviceId
SibylPolicy::finishDecision(std::uint32_t action)
{
    pendingState_.swap(obs_); // keep O_t without copying or freeing
    pendingAction_ = action;
    pendingReward_ = 0.0f;
    pendingValid_ = true;

    if (guardrail_) {
        const std::string reason =
            guardrail_->afterDecision(*agent_, action);
        if (!reason.empty())
            tripGuardrail(reason);
    }
    return static_cast<DeviceId>(action);
}

DeviceId
SibylPolicy::selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex)
{
    DeviceId action{};
    const float *row = nullptr;
    ml::Network *net =
        selectPlacementBegin(sys, req, reqIndex, action, &row);
    if (!net)
        return action;
    return selectPlacementFromRow(net->inferRow(row));
}

void
SibylPolicy::tripGuardrail(const std::string &reason)
{
    // Freeze-and-restore: the poisoned agent (weights, optimizer
    // state, and replay buffer alike) is discarded for a fresh build
    // seeded from the run's own stream, then the last-good weights
    // are restored when a snapshot exists. The in-flight transition
    // is dropped — it was produced by the tripped agent.
    const std::string &snapshot = guardrail_->trip(reason);
    agent_ = makeAgent(cfg_, encoder_.dimension(), numDevices_);
    if (!snapshot.empty()) {
        std::istringstream in(snapshot, std::ios::binary);
        if (rl::loadCheckpoint(*agent_, in).empty())
            guardrail_->markRestored();
    }
    pendingValid_ = false;
    fallback_->reset();
}

void
SibylPolicy::observeOutcome(const hss::HybridSystem &sys,
                            const trace::Request &req, DeviceId action,
                            const hss::ServeResult &result)
{
    (void)sys;
    if (pendingValid_) {
        RewardInputs in;
        in.result = result;
        in.op = req.op;
        in.sizePages = req.sizePages;
        in.action = action;
        pendingReward_ = reward_.compute(in);
    }
}

void
SibylPolicy::reset()
{
    pendingValid_ = false;
    completedTransitions_ = 0;
    agent_ = makeAgent(cfg_, encoder_.dimension(), numDevices_);
    if (cfg_.guardrail.enabled) {
        guardrail_ = std::make_unique<rl::Guardrail>(cfg_.guardrail);
        fallback_ = makeFallbackPolicy(cfg_.guardrail.fallback);
    }
}

} // namespace sibyl::core
