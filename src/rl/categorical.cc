#include "rl/categorical.hh"

#include "ml/kernel_dispatch.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sibyl::rl
{

CategoricalSupport::CategoricalSupport(double vmin, double vmax,
                                       std::uint32_t atoms)
    : vmin_(vmin), vmax_(vmax), atoms_(atoms)
{
    if (atoms < 2 || vmax <= vmin)
        throw std::invalid_argument("CategoricalSupport: bad parameters");
    delta_ = (vmax - vmin) / static_cast<double>(atoms - 1);
}

double
CategoricalSupport::expectation(const ml::Vector &probs) const
{
    assert(probs.size() == atoms_);
    return expectation(probs.data());
}

double
CategoricalSupport::expectation(const float *probs) const
{
    double e = 0.0;
    for (std::uint32_t i = 0; i < atoms_; i++)
        e += static_cast<double>(probs[i]) * atomValue(i);
    return e;
}

void
CategoricalSupport::project(const ml::Vector &nextProbs, double reward,
                            double gamma, ml::Vector &target) const
{
    assert(nextProbs.size() == atoms_);
    target.resize(atoms_);
    project(nextProbs.data(), reward, gamma, target.data());
}

namespace
{

// Four-lane double vector and its int32 twin (GCC vector extensions):
// lane-wise IEEE arithmetic, so each lane gets the scalar result bits.
typedef double Vec4d __attribute__((vector_size(4 * sizeof(double))));
typedef std::int32_t Vec4i
    __attribute__((vector_size(4 * sizeof(std::int32_t))));
constexpr std::uint32_t kGeometryChunk = 8;

/**
 * Where atoms i0..i0+7 land under (reward, gamma): the neighbours
 * lo/hi of the fractional index b of clamp(r + gamma*z_i, vmin, vmax),
 * capped at the last atom, and their weights hi - b and b - lo. Pure
 * element-wise double math, run four atoms per vector op with each
 * atom's exact scalar sequence. b >= +0 (the clamp keeps tz >= vmin),
 * so truncation is floor(b) and floor + (floor < b) is ceil(b); the
 * indices stay doubles, integral and small, so every comparison and
 * subtraction matches the integer form.
 */
SIBYL_KERNEL_CLONES
void
projectGeometry(double vmin, double vmax, double delta, double last,
                double reward, double gamma, std::uint32_t i0, double *lo,
                double *hi, double *wLo, double *wHi)
{
    const Vec4d zero = {};
    const Vec4d vminV = zero + vmin, vmaxV = zero + vmax;
    const Vec4d lastV = zero + last;
    for (std::uint32_t k = 0; k < kGeometryChunk; k += 4) {
        const auto i = static_cast<double>(i0 + k);
        const Vec4d idx = {i, i + 1.0, i + 2.0, i + 3.0};
        const Vec4d z = vmin + delta * idx;       // atomValue()
        const Vec4d v = reward + gamma * z;
        const Vec4d tz = v < vminV ? vminV : (vmaxV < v ? vmaxV : v);
        const Vec4d b = (tz - vmin) / delta;
        const Vec4d fl =
            __builtin_convertvector(__builtin_convertvector(b, Vec4i), Vec4d);
        const Vec4d ce = fl < b ? fl + 1.0 : fl;
        const Vec4d l = lastV < fl ? lastV : fl; // std::min
        const Vec4d h = lastV < ce ? lastV : ce;
        for (std::uint32_t j = 0; j < 4; j++) {
            lo[k + j] = l[j];
            hi[k + j] = h[j];
            wLo[k + j] = h[j] - b[j];
            wHi[k + j] = b[j] - l[j];
        }
    }
}

} // namespace

void
CategoricalSupport::project(const float *nextProbs, double reward,
                            double gamma, float *target) const
{
    // A non-finite reward must surface as a non-finite training loss,
    // not launder itself into a valid distribution: clamp(NaN) stays
    // NaN and the floor-then-cast below would be UB on it.
    if (!std::isfinite(reward)) {
        std::fill_n(target, atoms_,
                    std::numeric_limits<float>::quiet_NaN());
        return;
    }
    std::fill_n(target, atoms_, 0.0f);
    // Geometry eight atoms at a time across SIMD lanes, then the
    // scatter-adds one atom at a time in ascending order (neighbouring
    // atoms land on the same target entries, so the adds chain).
    const double last = static_cast<double>(atoms_ - 1);
    double lo[kGeometryChunk], hi[kGeometryChunk];
    double wLo[kGeometryChunk], wHi[kGeometryChunk];
    for (std::uint32_t i0 = 0; i0 < atoms_; i0 += kGeometryChunk) {
        projectGeometry(vmin_, vmax_, delta_, last, reward, gamma, i0, lo,
                        hi, wLo, wHi);
        const std::uint32_t nc = std::min(kGeometryChunk, atoms_ - i0);
        for (std::uint32_t k = 0; k < nc; k++) {
            const double p = nextProbs[i0 + k];
            if (p <= 0.0)
                continue;
            const auto l = static_cast<std::uint32_t>(lo[k]);
            const auto h = static_cast<std::uint32_t>(hi[k]);
            if (l == h) {
                target[l] += static_cast<float>(p);
            } else {
                target[l] += static_cast<float>(p * wLo[k]);
                target[h] += static_cast<float>(p * wHi[k]);
            }
        }
    }
}

} // namespace sibyl::rl
