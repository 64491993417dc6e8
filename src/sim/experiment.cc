#include "sim/experiment.hh"

#include "hss/hybrid_system.hh"
#include "scenario/policy_factory.hh"

namespace sibyl::sim
{

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
