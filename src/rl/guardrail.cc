#include "rl/guardrail.hh"

#include <cmath>
#include <sstream>

#include "rl/checkpoint.hh"
#include "rl/q_table.hh"
#include "rl/value_agent.hh"

namespace sibyl::rl
{

bool
agentParamsFinite(const Agent &agent)
{
    if (const auto *va = dynamic_cast<const ValueAgent *>(&agent)) {
        for (float v : va->trainingNetwork().saveParams())
            if (!std::isfinite(v))
                return false;
        return true;
    }
    const auto &q = dynamic_cast<const QTableAgent &>(agent);
    for (const auto &[key, row] : q.table()) {
        (void)key;
        for (double v : row)
            if (!std::isfinite(v))
                return false;
    }
    return true;
}

Guardrail::Guardrail(GuardrailConfig cfg) : cfg_(std::move(cfg)) {}

std::string
Guardrail::checkLoss(double loss)
{
    if (!std::isfinite(loss)) {
        std::ostringstream r;
        r << "non-finite training loss at decision " << decisions_;
        return r.str();
    }
    if (referenceCount_ < cfg_.lossWindow) {
        // Burn-in: the first lossWindow healthy losses since
        // (re-)admission define the reference scale.
        referenceSum_ += loss;
        referenceCount_++;
        return std::string();
    }
    recent_.push_back(loss);
    recentSum_ += loss;
    while (recent_.size() > cfg_.lossWindow) {
        recentSum_ -= recent_.front();
        recent_.pop_front();
    }
    if (recent_.size() < cfg_.lossWindow)
        return std::string();
    const double recentMean =
        recentSum_ / static_cast<double>(recent_.size());
    const double refMean =
        referenceSum_ / static_cast<double>(referenceCount_);
    if (recentMean > cfg_.lossFloor &&
        recentMean > cfg_.lossBlowupFactor * refMean) {
        std::ostringstream r;
        r << "loss blowup at decision " << decisions_ << " (recent mean "
          << recentMean << " vs reference " << refMean << ")";
        return r.str();
    }
    return std::string();
}

std::string
Guardrail::afterDecision(const Agent &agent, std::uint32_t action)
{
    decisions_++;

    // Stuck-action guard (off unless stuckActionWindow > 0).
    if (decisions_ == 1 || action != lastAction_) {
        lastAction_ = action;
        actionStreak_ = 1;
    } else {
        actionStreak_++;
    }
    if (cfg_.stuckActionWindow > 0 &&
        actionStreak_ >= cfg_.stuckActionWindow) {
        std::ostringstream r;
        r << "stuck on action " << action << " for " << actionStreak_
          << " decisions";
        return r.str();
    }

    // Loss guards: sample the mean loss of any training round that ran
    // since the previous decision.
    const AgentStats &st = agent.stats();
    if (st.trainingRounds > lastTrainingRounds_) {
        lastTrainingRounds_ = st.trainingRounds;
        std::string reason = checkLoss(st.lastLoss);
        if (!reason.empty())
            return reason;
    }

    // Periodic last-good snapshot, gated on finite weights: a
    // non-finite parameter is itself a trip, and must never be
    // enshrined as "last good".
    if (cfg_.snapshotEvery > 0 && decisions_ % cfg_.snapshotEvery == 0) {
        if (!agentParamsFinite(agent)) {
            std::ostringstream r;
            r << "non-finite network weights at decision " << decisions_;
            return r.str();
        }
        std::ostringstream buf(std::ios::binary);
        saveCheckpoint(agent, buf);
        snapshot_ = buf.str();
        stats_.snapshots++;
    }
    return std::string();
}

const std::string &
Guardrail::trip(const std::string &reason)
{
    stats_.trips++;
    stats_.lastTripDecision = decisions_;
    stats_.lastTripReason = reason;
    cooldownLeft_ = cfg_.cooldownDecisions;

    // Judge the re-admitted learner fresh: new burn-in reference, new
    // rolling window, new action streak. The rebuilt agent restarts
    // its stats, so the training-round watermark resets with it.
    referenceSum_ = 0.0;
    referenceCount_ = 0;
    recent_.clear();
    recentSum_ = 0.0;
    actionStreak_ = 0;
    lastTrainingRounds_ = 0;
    decisions_ = 0;
    return snapshot_;
}

bool
Guardrail::fallbackTick()
{
    stats_.fallbackDecisions++;
    if (halted())
        return false;
    if (cooldownLeft_ > 0)
        cooldownLeft_--;
    return cooldownLeft_ == 0;
}

} // namespace sibyl::rl
