/**
 * @file
 * Perturbation-based feature saliency for the learned policy.
 *
 * §11 notes that RL is "largely a black-box policy" and that the
 * paper's explainability analysis provides intuition into Sibyl's
 * mechanism. This module adds a standard model-agnostic probe: for a
 * set of observed states, each feature is perturbed in isolation and
 * the effect on the agent's Q-values and greedy action is measured.
 * Features whose perturbation flips decisions are the ones the policy
 * actually relies on — a quantitative companion to the Fig. 13
 * feature-ablation study.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.hh"
#include "rl/agent.hh"

namespace sibyl::explain
{

/** Saliency of one feature over a state sample. */
struct FeatureSaliency
{
    std::size_t feature = 0;

    /** Fraction of states whose greedy action flips when the feature
     *  is perturbed. */
    double actionFlipRate = 0.0;

    /** Mean absolute change of the best action's Q-value. */
    double meanAbsDeltaQ = 0.0;
};

/**
 * Probe @p agent with feature perturbations.
 *
 * For every state and feature, the feature value is replaced with
 * `probes` evenly spaced values in [0,1] and the flip rate / Q-delta
 * averaged. States should come from real decisions, so the probe
 * reflects the visited distribution: call StateEncoder::encode before
 * each RequestStepper::step of a run.
 *
 * @param agent  The (trained) agent to probe.
 * @param states Observed observation vectors.
 * @param probes Perturbation values per feature (default 4).
 */
std::vector<FeatureSaliency>
featureSaliency(rl::Agent &agent, const std::vector<ml::Vector> &states,
                std::uint32_t probes = 4);

} // namespace sibyl::explain
