#include "rl/exploration.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sibyl::rl
{

const char *
explorationKindName(ExplorationKind kind)
{
    switch (kind) {
      case ExplorationKind::ConstantEpsilon:
        return "constant-eps";
      case ExplorationKind::LinearDecay:
        return "linear-decay";
      case ExplorationKind::ExponentialDecay:
        return "exp-decay";
      case ExplorationKind::Boltzmann:
        return "boltzmann";
      case ExplorationKind::Vdbe:
        return "vdbe";
    }
    return "?";
}

ExplorationSchedule::ExplorationSchedule(ExplorationConfig cfg)
    : cfg_(cfg), vdbeEpsilon_(cfg.epsilonStart)
{
    // Thrown, not fatal: a bad descriptor value fails its own run and
    // the runner records it, leaving the other runs of a batch intact.
    auto reject = [](const std::string &what) {
        throw std::invalid_argument("ExplorationSchedule: " + what);
    };
    if (!(cfg_.epsilon >= 0.0 && cfg_.epsilon <= 1.0))
        reject("epsilon must be in [0,1]");
    if (!(cfg_.epsilonStart >= 0.0 && cfg_.epsilonStart <= 1.0))
        reject("epsilonStart must be in [0,1]");
    if (cfg_.kind == ExplorationKind::Boltzmann &&
        !(cfg_.temperature > 0.0))
        reject("Boltzmann temperature must be > 0");
    if (cfg_.kind == ExplorationKind::Vdbe) {
        if (!(cfg_.vdbeSigma > 0.0))
            reject("vdbeSigma must be > 0");
        if (!(cfg_.vdbeDelta > 0.0 && cfg_.vdbeDelta <= 1.0))
            reject("vdbeDelta must be in (0,1]");
    }
}

double
ExplorationSchedule::epsilonAt(std::uint64_t step) const
{
    switch (cfg_.kind) {
      case ExplorationKind::ConstantEpsilon:
        return cfg_.epsilon;
      case ExplorationKind::LinearDecay: {
        if (cfg_.decaySteps == 0 || step >= cfg_.decaySteps)
            return cfg_.epsilon;
        const double progress =
            static_cast<double>(step) / static_cast<double>(cfg_.decaySteps);
        return cfg_.epsilonStart +
               (cfg_.epsilon - cfg_.epsilonStart) * progress;
      }
      case ExplorationKind::ExponentialDecay: {
        if (cfg_.halfLifeSteps == 0)
            return cfg_.epsilon;
        const double halvings = static_cast<double>(step) /
                                static_cast<double>(cfg_.halfLifeSteps);
        const double excess =
            (cfg_.epsilonStart - cfg_.epsilon) * std::exp2(-halvings);
        return cfg_.epsilon + std::max(0.0, excess);
      }
      case ExplorationKind::Boltzmann:
        return 0.0;
      case ExplorationKind::Vdbe:
        return std::max(cfg_.epsilon, vdbeEpsilon_);
    }
    return cfg_.epsilon;
}

void
ExplorationSchedule::observeValueDelta(double magnitude)
{
    if (cfg_.kind != ExplorationKind::Vdbe)
        return;
    // Tokic's Boltzmann-shaped exploration impulse: ~0 for vanishing
    // updates, -> 1 for updates far above sigma.
    const double x = std::exp(-std::abs(magnitude) / cfg_.vdbeSigma);
    const double f = (1.0 - x) / (1.0 + x);
    vdbeEpsilon_ = cfg_.vdbeDelta * f + (1.0 - cfg_.vdbeDelta) * vdbeEpsilon_;
}

void
ExplorationSchedule::boltzmannProbabilities(const std::vector<double> &q,
                                            std::vector<double> &p) const
{
    // Stable softmax of q / T: subtract the max before exponentiating.
    const double qmax = *std::max_element(q.begin(), q.end());
    p.resize(q.size());
    double sum = 0.0;
    for (std::size_t a = 0; a < q.size(); a++) {
        p[a] = std::exp((q[a] - qmax) / cfg_.temperature);
        sum += p[a];
    }
    for (double &v : p)
        v /= sum;
}

std::uint32_t
ExplorationSchedule::sampleBoltzmann(const std::vector<double> &q,
                                     std::vector<double> &p,
                                     Pcg32 &rng) const
{
    boltzmannProbabilities(q, p);
    double u = rng.nextDouble();
    for (std::size_t a = 0; a + 1 < p.size(); a++) {
        if (u < p[a])
            return static_cast<std::uint32_t>(a);
        u -= p[a];
    }
    return static_cast<std::uint32_t>(p.size() - 1);
}

void
ExplorationSchedule::overrideConstant(double eps)
{
    cfg_.kind = ExplorationKind::ConstantEpsilon;
    cfg_.epsilon = eps;
}

} // namespace sibyl::rl
