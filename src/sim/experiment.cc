#include "sim/experiment.hh"

#include "hss/hybrid_system.hh"
#include "scenario/policy_factory.hh"

namespace sibyl::sim
{

namespace
{

constexpr ResultScalar kResultScalars[] = {
    {"avgLatencyUs", &RunMetrics::avgLatencyUs},
    {"steadyAvgLatencyUs", &RunMetrics::steadyAvgLatencyUs},
    {"p50LatencyUs", &RunMetrics::p50LatencyUs},
    {"p99LatencyUs", &RunMetrics::p99LatencyUs},
    {"p999LatencyUs", &RunMetrics::p999LatencyUs},
    {"maxLatencyUs", &RunMetrics::maxLatencyUs},
    {"iops", &RunMetrics::iops},
    {"makespanUs", &RunMetrics::makespanUs},
    {"evictionFraction", &RunMetrics::evictionFraction},
    {"fastPlacementPreference", &RunMetrics::fastPlacementPreference},
    {"normalizedLatency", nullptr, &PolicyResult::normalizedLatency},
    {"normalizedSteadyLatency", nullptr,
     &PolicyResult::normalizedSteadyLatency},
    {"normalizedIops", nullptr, &PolicyResult::normalizedIops},
    {"totalEnergyMj", nullptr, &PolicyResult::totalEnergyMj},
};

} // namespace

std::span<const ResultScalar>
resultScalars()
{
    return kResultScalars;
}

const ResultScalar *
findResultScalar(std::string_view name)
{
    for (const auto &s : kResultScalars)
        if (name == s.name)
            return &s;
    return nullptr;
}

std::uint32_t
numHssDevices(const std::string &hssConfig, double fastCapacityFrac)
{
    // Derive the count from the authoritative config builder so every
    // shorthand (dual, tri, quad) stays in sync automatically.
    return static_cast<std::uint32_t>(
        hss::makeHssConfig(hssConfig, 4096, fastCapacityFrac).size());
}

std::unique_ptr<policies::PlacementPolicy>
makePolicy(const std::string &name, std::uint32_t numDevices,
           const core::SibylConfig &sibylCfg)
{
    return scenario::PolicyFactory::instance().make(name, numDevices,
                                                    sibylCfg);
}

const std::vector<std::string> &
standardPolicyLineup()
{
    static const std::vector<std::string> lineup = {
        "Slow-Only", "CDE", "HPS", "Archivist", "RNN-HSS", "Sibyl",
        "Oracle",
    };
    return lineup;
}

} // namespace sibyl::sim
