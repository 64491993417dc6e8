#include "scenario/policy_factory.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/sibyl_policy.hh"
#include "energy/energy_model.hh"
#include "policies/archivist.hh"
#include "policies/cde.hh"
#include "policies/hps.hh"
#include "policies/oracle.hh"
#include "policies/rnn_hss.hh"
#include "policies/static_policies.hh"
#include "policies/tri_heuristic.hh"

namespace sibyl::scenario
{

namespace
{

[[noreturn]] void
paramError(const PolicyDesc &desc, const std::string &what)
{
    throw std::invalid_argument("policy \"" + desc.raw + "\": " + what);
}

double
toDouble(const PolicyDesc &desc, const std::string &key,
         const std::string &value)
{
    char *end = nullptr;
    const double d = std::strtod(value.c_str(), &end);
    // Reject "inf"/"nan" (strtod accepts them): a non-finite
    // hyper-parameter silently poisons the training loop.
    if (end != value.c_str() + value.size() || value.empty() ||
        !std::isfinite(d))
        paramError(desc, key + " wants a finite number, got \"" + value +
                             "\"");
    return d;
}

std::uint64_t
toU64(const PolicyDesc &desc, const std::string &key,
      const std::string &value)
{
    // strtoull silently wraps a leading '-' and saturates on
    // overflow; both must be diagnostics here, not garbage values.
    if (value.empty() || value[0] == '-' || value[0] == '+')
        paramError(desc, key + " wants a non-negative integer, got \"" +
                             value + "\"");
    errno = 0;
    char *end = nullptr;
    const unsigned long long u = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || end != value.c_str() + value.size())
        paramError(desc, key + " wants a non-negative integer, got \"" +
                             value + "\"");
    return u;
}

std::uint32_t
toU32(const PolicyDesc &desc, const std::string &key,
      const std::string &value)
{
    const std::uint64_t u = toU64(desc, key, value);
    if (u > 0xFFFFFFFFULL)
        paramError(desc, key + " wants a 32-bit value, got \"" + value +
                             "\"");
    return static_cast<std::uint32_t>(u);
}

bool
toBool(const PolicyDesc &desc, const std::string &key,
       const std::string &value)
{
    if (value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    paramError(desc, key + " wants 0/1/true/false, got \"" + value + "\"");
}

/** Split @p value on @p sep into non-empty fields. */
std::vector<std::string>
splitList(const std::string &value, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t end = value.find(sep, start);
        if (end == std::string::npos)
            end = value.size();
        if (end > start)
            out.push_back(value.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::uint32_t
featureMask(const PolicyDesc &desc, const std::string &value)
{
    using namespace core;
    std::uint32_t mask = 0;
    for (const auto &f : splitList(value, '|')) {
        if (f == "size")
            mask |= kFeatSize;
        else if (f == "type")
            mask |= kFeatType;
        else if (f == "interval")
            mask |= kFeatInterval;
        else if (f == "count")
            mask |= kFeatCount;
        else if (f == "capacity")
            mask |= kFeatCapacity;
        else if (f == "current")
            mask |= kFeatCurrent;
        else if (f == "all")
            mask |= kFeatAll;
        else
            paramError(desc, "unknown feature \"" + f +
                                 "\" (size|type|interval|count|capacity"
                                 "|current|all)");
    }
    if (mask == 0)
        paramError(desc, "features selects nothing");
    return mask;
}

/** Reject any parameters for policies that take none. */
void
rejectParams(const PolicyDesc &desc)
{
    if (!desc.params.empty())
        paramError(desc, "policy \"" + desc.name +
                             "\" takes no parameters");
}

} // namespace

PolicyDesc
PolicyDesc::parse(const std::string &descriptor)
{
    PolicyDesc d;
    d.raw = descriptor;
    const std::size_t brace = descriptor.find('{');
    if (brace == std::string::npos) {
        d.name = descriptor;
    } else {
        d.name = descriptor.substr(0, brace);
        if (descriptor.back() != '}')
            throw std::invalid_argument("policy descriptor \"" +
                                        descriptor +
                                        "\": missing closing '}'");
        const std::string body =
            descriptor.substr(brace + 1,
                              descriptor.size() - brace - 2);
        for (const auto &kv : splitList(body, ',')) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                throw std::invalid_argument(
                    "policy descriptor \"" + descriptor +
                    "\": parameter \"" + kv + "\" is not key=value");
            d.params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        }
    }
    if (d.name.empty())
        throw std::invalid_argument("policy descriptor \"" + descriptor +
                                    "\": empty name");
    return d;
}

const std::string *
PolicyDesc::find(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return &v;
    return nullptr;
}

void
applySibylParams(core::SibylConfig &cfg, const PolicyDesc &desc)
{
    using namespace core;
    for (const auto &[key, value] : desc.params) {
        if (key == "gamma") {
            cfg.gamma = toDouble(desc, key, value);
        } else if (key == "lr" || key == "learningRate") {
            cfg.learningRate = toDouble(desc, key, value);
        } else if (key == "epsilon" || key == "eps") {
            cfg.exploration.epsilon = toDouble(desc, key, value);
        } else if (key == "batchSize") {
            cfg.batchSize = toU32(desc, key, value);
        } else if (key == "batchesPerTraining") {
            cfg.batchesPerTraining = toU32(desc, key, value);
        } else if (key == "bufferCapacity") {
            cfg.bufferCapacity = toU64(desc, key, value);
        } else if (key == "targetSyncEvery") {
            cfg.targetSyncEvery = toU32(desc, key, value);
        } else if (key == "trainEvery") {
            cfg.trainEvery = toU32(desc, key, value);
        } else if (key == "atoms") {
            cfg.atoms = toU32(desc, key, value);
        } else if (key == "vmin") {
            cfg.vmin = toDouble(desc, key, value);
        } else if (key == "vmax") {
            cfg.vmax = toDouble(desc, key, value);
        } else if (key == "seed") {
            cfg.seed = toU64(desc, key, value);
        } else if (key == "hidden") {
            cfg.hidden.clear();
            for (const auto &h : splitList(value, 'x'))
                cfg.hidden.push_back(toU64(desc, key, h));
            if (cfg.hidden.empty())
                paramError(desc, "hidden wants e.g. 20x30");
        } else if (key == "agent") {
            if (value == "c51")
                cfg.agentKind = AgentKind::C51;
            else if (value == "dqn")
                cfg.agentKind = AgentKind::Dqn;
            else if (value == "qtable")
                cfg.agentKind = AgentKind::QTable;
            else
                paramError(desc, "agent wants c51|dqn|qtable");
        } else if (key == "per" || key == "prioritizedReplay") {
            cfg.prioritizedReplay = toBool(desc, key, value);
        } else if (key == "doubleDqn") {
            cfg.doubleDqn = toBool(desc, key, value);
        } else if (key == "features") {
            cfg.features.mask = featureMask(desc, value);
        } else if (key == "wearFeatures") {
            cfg.features.wearFeatures = toBool(desc, key, value);
        } else if (key == "sizeBins") {
            cfg.features.sizeBins = toU32(desc, key, value);
        } else if (key == "intervalBins") {
            cfg.features.intervalBins = toU32(desc, key, value);
        } else if (key == "countBins") {
            cfg.features.countBins = toU32(desc, key, value);
        } else if (key == "capacityBins") {
            cfg.features.capacityBins = toU32(desc, key, value);
        } else if (key == "reward") {
            if (value == "latency")
                cfg.reward.kind = RewardKind::Latency;
            else if (value == "hitrate")
                cfg.reward.kind = RewardKind::HitRate;
            else if (value == "evictiononly")
                cfg.reward.kind = RewardKind::EvictionOnly;
            else if (value == "endurance")
                cfg.reward.kind = RewardKind::EnduranceAware;
            else if (value == "energy")
                cfg.reward.kind = RewardKind::EnergyAware;
            else
                paramError(desc, "reward wants latency|hitrate|"
                                 "evictiononly|endurance|energy");
        } else if (key == "latencyScaleUs") {
            cfg.reward.latencyScaleUs = toDouble(desc, key, value);
        } else if (key == "penaltyCoeff") {
            cfg.reward.penaltyCoeff = toDouble(desc, key, value);
        } else if (key == "evictionOnlyPenalty") {
            cfg.reward.evictionOnlyPenalty =
                static_cast<float>(toDouble(desc, key, value));
        } else if (key == "enduranceWeight") {
            cfg.reward.enduranceWeight = toDouble(desc, key, value);
        } else if (key == "enduranceCriticalDevice") {
            cfg.reward.enduranceCriticalDevice =
                static_cast<DeviceId>(toU32(desc, key, value));
        } else if (key == "energyWeight") {
            cfg.reward.energyWeight = toDouble(desc, key, value);
        } else if (key == "power") {
            cfg.reward.devicePower.clear();
            for (const auto &p : splitList(value, ':'))
                cfg.reward.devicePower.push_back(
                    energy::powerPreset(p));
        } else if (key == "explore") {
            if (value == "constant")
                cfg.exploration.kind = rl::ExplorationKind::ConstantEpsilon;
            else if (value == "linear")
                cfg.exploration.kind = rl::ExplorationKind::LinearDecay;
            else if (value == "exp")
                cfg.exploration.kind =
                    rl::ExplorationKind::ExponentialDecay;
            else if (value == "boltzmann")
                cfg.exploration.kind = rl::ExplorationKind::Boltzmann;
            else if (value == "vdbe")
                cfg.exploration.kind = rl::ExplorationKind::Vdbe;
            else
                paramError(desc, "explore wants constant|linear|exp|"
                                 "boltzmann|vdbe");
        } else if (key == "epsilonStart") {
            cfg.exploration.epsilonStart = toDouble(desc, key, value);
        } else if (key == "decaySteps") {
            cfg.exploration.decaySteps = toU64(desc, key, value);
        } else if (key == "halfLifeSteps") {
            cfg.exploration.halfLifeSteps = toU64(desc, key, value);
        } else if (key == "temperature") {
            cfg.exploration.temperature = toDouble(desc, key, value);
        } else if (key == "vdbeSigma") {
            cfg.exploration.vdbeSigma = toDouble(desc, key, value);
        } else if (key == "vdbeDelta") {
            cfg.exploration.vdbeDelta = toDouble(desc, key, value);
        } else if (key == "guardrail") {
            cfg.guardrail.enabled = toBool(desc, key, value);
        } else if (key == "guardrailSnapshotEvery") {
            cfg.guardrail.snapshotEvery = toU32(desc, key, value);
        } else if (key == "guardrailLossWindow") {
            cfg.guardrail.lossWindow = toU32(desc, key, value);
            if (cfg.guardrail.lossWindow == 0)
                paramError(desc, "guardrailLossWindow must be >= 1");
        } else if (key == "guardrailLossBlowup") {
            cfg.guardrail.lossBlowupFactor = toDouble(desc, key, value);
            if (cfg.guardrail.lossBlowupFactor <= 1.0)
                paramError(desc, "guardrailLossBlowup must be > 1");
        } else if (key == "guardrailLossFloor") {
            cfg.guardrail.lossFloor = toDouble(desc, key, value);
            if (cfg.guardrail.lossFloor < 0.0)
                paramError(desc, "guardrailLossFloor must be >= 0");
        } else if (key == "guardrailStuckWindow") {
            cfg.guardrail.stuckActionWindow = toU32(desc, key, value);
        } else if (key == "guardrailCooldown") {
            cfg.guardrail.cooldownDecisions = toU32(desc, key, value);
        } else if (key == "guardrailMaxTrips") {
            cfg.guardrail.maxTrips = toU32(desc, key, value);
        } else if (key == "guardrailFallback") {
            if (value != "CDE" && value != "HPS")
                paramError(desc, "guardrailFallback wants CDE|HPS");
            cfg.guardrail.fallback = value;
        } else if (key == "guardrailInjectNanAt") {
            cfg.guardrail.injectNanRewardAt = toU64(desc, key, value);
        } else {
            paramError(
                desc,
                "unknown Sibyl parameter \"" + key +
                    "\" (valid: gamma lr epsilon batchSize "
                    "batchesPerTraining bufferCapacity targetSyncEvery "
                    "trainEvery atoms vmin vmax seed "
                    "hidden agent per "
                    "doubleDqn features wearFeatures sizeBins "
                    "intervalBins countBins "
                    "capacityBins reward latencyScaleUs penaltyCoeff "
                    "evictionOnlyPenalty enduranceWeight "
                    "enduranceCriticalDevice energyWeight power explore "
                    "epsilonStart decaySteps halfLifeSteps temperature "
                    "vdbeSigma vdbeDelta guardrail guardrailSnapshotEvery "
                    "guardrailLossWindow guardrailLossBlowup "
                    "guardrailLossFloor guardrailStuckWindow "
                    "guardrailCooldown guardrailMaxTrips "
                    "guardrailFallback guardrailInjectNanAt)");
        }
    }
}

PolicyFactory &
PolicyFactory::instance()
{
    static PolicyFactory *factory = [] {
        auto *f = new PolicyFactory();

        using policies::PlacementPolicy;
        auto simple = [f](const std::string &name, const std::string &desc,
                          auto makeFn) {
            f->registerPolicy(
                name, desc,
                [makeFn](const PolicyDesc &d, std::uint32_t,
                         const core::SibylConfig &)
                    -> std::unique_ptr<PlacementPolicy> {
                    rejectParams(d);
                    return makeFn();
                });
        };

        simple("Slow-Only", "static baseline: everything on the slowest "
                            "device",
               [] { return std::make_unique<policies::SlowOnlyPolicy>(); });
        simple("Fast-Only", "static baseline: everything on the fast "
                            "device (the normalization divisor)",
               [] { return std::make_unique<policies::FastOnlyPolicy>(); });
        simple("Archivist", "offline NN classifier, epoch-trained, no "
                            "runtime feedback",
               [] { return std::make_unique<policies::ArchivistPolicy>(); });
        simple("RNN-HSS", "offline RNN hotness predictor",
               [] { return std::make_unique<policies::RnnHssPolicy>(); });
        simple("Oracle", "future-knowledge upper bound",
               [] { return std::make_unique<policies::OraclePolicy>(); });

        f->registerPolicy(
            "CDE",
            "hotness/randomness heuristic "
            "{hotAccessThreshold,randomSizeThresholdPages}",
            [](const PolicyDesc &d, std::uint32_t,
               const core::SibylConfig &)
                -> std::unique_ptr<PlacementPolicy> {
                policies::CdeConfig cfg;
                for (const auto &[k, v] : d.params) {
                    if (k == "hotAccessThreshold")
                        cfg.hotAccessThreshold = toU64(d, k, v);
                    else if (k == "randomSizeThresholdPages")
                        cfg.randomSizeThresholdPages = toU32(d, k, v);
                    else
                        paramError(d, "unknown CDE parameter \"" + k +
                                          "\" (valid: hotAccessThreshold "
                                          "randomSizeThresholdPages)");
                }
                return std::make_unique<policies::CdePolicy>(cfg);
            });

        f->registerPolicy(
            "HPS", "epoch hot-set heuristic {epochLength,hotThreshold}",
            [](const PolicyDesc &d, std::uint32_t,
               const core::SibylConfig &)
                -> std::unique_ptr<PlacementPolicy> {
                policies::HpsConfig cfg;
                for (const auto &[k, v] : d.params) {
                    if (k == "epochLength")
                        cfg.epochLength = toU64(d, k, v);
                    else if (k == "hotThreshold")
                        cfg.hotThreshold = toU64(d, k, v);
                    else
                        paramError(d, "unknown HPS parameter \"" + k +
                                          "\" (valid: epochLength "
                                          "hotThreshold)");
                }
                return std::make_unique<policies::HpsPolicy>(cfg);
            });

        f->registerPolicy(
            "Heuristic-Tri-Hybrid",
            "hot/cold/frozen banding for 3 tiers "
            "{hotThreshold,coldThreshold,randomSizeThresholdPages}",
            [](const PolicyDesc &d, std::uint32_t,
               const core::SibylConfig &)
                -> std::unique_ptr<PlacementPolicy> {
                policies::TriHeuristicConfig cfg;
                for (const auto &[k, v] : d.params) {
                    if (k == "hotThreshold")
                        cfg.hotThreshold = toU64(d, k, v);
                    else if (k == "coldThreshold")
                        cfg.coldThreshold = toU64(d, k, v);
                    else if (k == "randomSizeThresholdPages")
                        cfg.randomSizeThresholdPages = toU32(d, k, v);
                    else
                        paramError(d,
                                   "unknown Heuristic-Tri-Hybrid "
                                   "parameter \"" + k +
                                       "\" (valid: hotThreshold "
                                       "coldThreshold "
                                       "randomSizeThresholdPages)");
                }
                return std::make_unique<policies::TriHeuristicPolicy>(cfg);
            });

        f->registerPolicy(
            "Heuristic-Multi-Tier",
            "N-tier banding heuristic {thresholds=a:b:c, descending; "
            "default hand-tuned per tier count}",
            [](const PolicyDesc &d, std::uint32_t numDevices,
               const core::SibylConfig &)
                -> std::unique_ptr<PlacementPolicy> {
                std::vector<std::uint64_t> thresholds;
                for (const auto &[k, v] : d.params) {
                    if (k == "thresholds") {
                        for (const auto &t : splitList(v, ':'))
                            thresholds.push_back(toU64(d, k, t));
                    } else {
                        paramError(d,
                                   "unknown Heuristic-Multi-Tier "
                                   "parameter \"" + k +
                                       "\" (valid: thresholds)");
                    }
                }
                if (thresholds.empty()) {
                    // One designer-chosen threshold per tier boundary,
                    // descending. These defaults were hand-tuned for
                    // the quad-hybrid configuration — the tuning
                    // burden is the point (§8.7).
                    for (std::uint32_t i = 0; i + 1 < numDevices; i++)
                        thresholds.push_back(
                            1ULL << (2 * (numDevices - 2 - i)));
                }
                return std::make_unique<policies::MultiTierHeuristicPolicy>(
                    std::move(thresholds));
            });

        // The Sibyl family. The bare entry is a *prefix* entry: any
        // descriptor name starting with "Sibyl" without a more specific
        // registration ("Sibyl_Opt", "Sibyl2") builds a SibylPolicy
        // whose display name is the descriptor itself — the legacy
        // lineup-variant behavior. The shorthands pin the agent family
        // of the §4.1/§6.2.1 ablations before params apply.
        auto sibylEntry = [f](const std::string &name,
                              const std::string &desc, auto presetFn,
                              bool prefix) {
            f->registerPolicy(
                name, desc,
                [presetFn](const PolicyDesc &d, std::uint32_t numDevices,
                           const core::SibylConfig &base)
                    -> std::unique_ptr<PlacementPolicy> {
                    core::SibylConfig cfg = base;
                    presetFn(cfg);
                    applySibylParams(cfg, d);
                    return std::make_unique<core::SibylPolicy>(
                        cfg, numDevices, d.raw);
                },
                prefix);
        };
        sibylEntry("Sibyl",
                   "the paper's RL policy (C51); any Sibyl{...} "
                   "parameter, e.g. Sibyl{gamma=0.5,hidden=40x60}",
                   [](core::SibylConfig &) {}, /*prefix=*/true);
        sibylEntry("Sibyl-C51", "Sibyl with the distributional C51 head "
                                "(alias of the default)",
                   [](core::SibylConfig &cfg) {
                       cfg.agentKind = core::AgentKind::C51;
                   },
                   false);
        sibylEntry("Sibyl-DQN", "Sibyl with a scalar-Q DQN head",
                   [](core::SibylConfig &cfg) {
                       cfg.agentKind = core::AgentKind::Dqn;
                   },
                   false);
        sibylEntry("Sibyl-QTable",
                   "Sibyl with tabular Q-learning (no function "
                   "approximation; lr defaults to 0.2)",
                   [](core::SibylConfig &cfg) {
                       cfg.agentKind = core::AgentKind::QTable;
                       // Tabular updates need a far higher alpha — but
                       // only as a *default*: a base config whose lr
                       // was deliberately changed (scenario
                       // sibylParams) stays authoritative.
                       if (cfg.learningRate ==
                           core::SibylConfig().learningRate)
                           cfg.learningRate = 0.2;
                   },
                   false);
        return f;
    }();
    return *factory;
}

void
PolicyFactory::registerPolicy(const std::string &name,
                              const std::string &description, FactoryFn fn,
                              bool prefix)
{
    for (auto &e : entries_) {
        if (e.info.name == name) {
            e.info.description = description;
            e.info.prefix = prefix;
            e.fn = std::move(fn);
            return;
        }
    }
    entries_.push_back(Entry{{name, description, prefix}, std::move(fn)});
}

const PolicyFactory::Entry *
PolicyFactory::resolve(const std::string &name) const
{
    const Entry *prefixHit = nullptr;
    for (const auto &e : entries_) {
        if (e.info.name == name)
            return &e;
        if (e.info.prefix && name.rfind(e.info.name, 0) == 0 &&
            (!prefixHit ||
             e.info.name.size() > prefixHit->info.name.size()))
            prefixHit = &e;
    }
    return prefixHit;
}

std::unique_ptr<policies::PlacementPolicy>
PolicyFactory::make(const std::string &descriptor,
                    std::uint32_t numDevices,
                    const core::SibylConfig &baseCfg) const
{
    const PolicyDesc desc = PolicyDesc::parse(descriptor);
    const Entry *entry = resolve(desc.name);
    if (!entry) {
        std::string names;
        for (const auto &info : policies())
            names += (names.empty() ? "" : " ") + info.name;
        throw std::invalid_argument("unknown policy \"" + desc.name +
                                    "\" (registered: " + names + ")");
    }
    return entry->fn(desc, numDevices, baseCfg);
}

bool
PolicyFactory::resolvable(const std::string &descriptor) const
{
    try {
        return resolve(PolicyDesc::parse(descriptor).name) != nullptr;
    } catch (const std::invalid_argument &) {
        return false;
    }
}

std::vector<PolicyInfo>
PolicyFactory::policies() const
{
    std::vector<PolicyInfo> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.info);
    std::sort(out.begin(), out.end(),
              [](const PolicyInfo &a, const PolicyInfo &b) {
                  return a.name < b.name;
              });
    return out;
}

} // namespace sibyl::scenario
