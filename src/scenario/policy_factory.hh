/**
 * @file
 * Self-registering policy registry: every placement policy in the
 * repository — the heuristic baselines and the RL agent families — is
 * constructible from a single *descriptor string*
 *
 *     Name
 *     Name{key=value,key=value,...}
 *
 * e.g. `CDE`, `Sibyl{gamma=0.5}`, `Sibyl-DQN{doubleDqn=1}`,
 * `Heuristic-Multi-Tier{thresholds=16:4:1}`. The descriptor is plain
 * data, so a whole experiment (policies x workloads x configs) can be
 * described by strings in a scenario file and handed to
 * sim::ParallelRunner — and because the descriptor travels in
 * RunSpec::policy it participates in the runner's stable run key:
 * every sweep point gets its own derived RNG streams automatically.
 *
 * Downstream users extend the registry at runtime (see
 * examples/custom_policy.cpp):
 *
 *     PolicyFactory::instance().registerPolicy("LFU-Admit", "...",
 *         [](const PolicyDesc &d, std::uint32_t n,
 *            const core::SibylConfig &) { ... });
 *
 * This module deliberately does not depend on sim/: the simulation
 * layer calls *into* it (sim::makePolicy is a thin wrapper), never the
 * other way around.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sibyl_config.hh"
#include "policies/policy.hh"

namespace sibyl::scenario
{

/** Parsed `Name{k=v,...}` policy descriptor. */
struct PolicyDesc
{
    /** Registry name (the part before '{'). */
    std::string name;

    /** Parameters in written order. */
    std::vector<std::pair<std::string, std::string>> params;

    /** The descriptor exactly as written — used as the display name of
     *  parameterized policies so tables, JSON results, and run keys
     *  all show the full sweep-point identity. */
    std::string raw;

    /** Parse a descriptor string; throws std::invalid_argument on
     *  syntax errors (unbalanced braces, missing '=', empty key). */
    static PolicyDesc parse(const std::string &descriptor);

    /** Value of @p key, or nullptr. */
    const std::string *find(const std::string &key) const;
};

/** One registry entry, as listed by `sibyl_cli --list-policies`. */
struct PolicyInfo
{
    std::string name;
    std::string description;

    /** Entry also matches any descriptor name it prefixes (the Sibyl
     *  family: "Sibyl_Opt", "Sibyl2" ... construct a SibylPolicy whose
     *  display name is the descriptor itself). */
    bool prefix = false;
};

/**
 * The process-wide policy registry. Thread-compatible: registration
 * happens at startup (built-ins) or from main() before runs fan out;
 * make() is const and safe to call concurrently from worker threads.
 */
class PolicyFactory
{
  public:
    using FactoryFn =
        std::function<std::unique_ptr<policies::PlacementPolicy>(
            const PolicyDesc &desc, std::uint32_t numDevices,
            const core::SibylConfig &baseCfg)>;

    /** The singleton, with all built-in policies registered. */
    static PolicyFactory &instance();

    /**
     * Register @p name. A later registration of the same name replaces
     * the earlier one (tests and examples may shadow built-ins).
     */
    void registerPolicy(const std::string &name,
                        const std::string &description, FactoryFn fn,
                        bool prefix = false);

    /**
     * Construct the policy described by @p descriptor.
     *
     * @param descriptor  `Name` or `Name{k=v,...}`.
     * @param numDevices  Devices of the target system (action count).
     * @param baseCfg     Base Sibyl hyper-parameters; descriptor params
     *                    are applied on top (heuristics ignore it).
     *
     * Throws std::invalid_argument for an unknown name (the message
     * lists every registered policy) or an unknown/ill-typed parameter.
     */
    std::unique_ptr<policies::PlacementPolicy>
    make(const std::string &descriptor, std::uint32_t numDevices,
         const core::SibylConfig &baseCfg = core::SibylConfig()) const;

    /** True when make() would resolve @p descriptor's name. */
    bool resolvable(const std::string &descriptor) const;

    /** Registered policies, sorted by name. */
    std::vector<PolicyInfo> policies() const;

  private:
    PolicyFactory() = default;

    struct Entry
    {
        PolicyInfo info;
        FactoryFn fn;
    };

    const Entry *resolve(const std::string &name) const;

    std::vector<Entry> entries_;
};

/**
 * Apply descriptor parameters to a SibylConfig. Understood keys cover
 * every SibylConfig field: hyper-parameters (gamma, lr/learningRate,
 * epsilon/eps — exploration.epsilon, batchSize, batchesPerTraining, bufferCapacity,
 * targetSyncEvery, trainEvery, atoms, vmin, vmax, seed), topology
 * (hidden=20x30), agent family (agent=c51|dqn|qtable, per/
 * prioritizedReplay, doubleDqn), features (features=size|type|...|all,
 * sizeBins, intervalBins, countBins, capacityBins), reward
 * (reward=latency|hitrate|evictiononly|endurance|energy,
 * latencyScaleUs, penaltyCoeff, evictionOnlyPenalty, enduranceWeight,
 * enduranceCriticalDevice, energyWeight, power=H:M — per-device power
 * presets), and exploration (explore=constant|linear|exp|boltzmann|
 * vdbe, epsilonStart, decaySteps, halfLifeSteps, temperature,
 * vdbeSigma, vdbeDelta). Throws std::invalid_argument on an unknown
 * key, listing the valid ones.
 */
void applySibylParams(core::SibylConfig &cfg, const PolicyDesc &desc);

} // namespace sibyl::scenario
