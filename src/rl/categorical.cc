#include "rl/categorical.hh"

#include "ml/activations.hh"
#include "ml/kernel_dispatch.hh"
#include "ml/simd.hh"

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

namespace
{

/** Lanes of one projectLanes() sweep: eight doubles fill an AVX-512
 *  register, and their int32 twins convert in one instruction. */
constexpr std::size_t kProjectLanes = 8;
static_assert(ml::kSoftmaxLanes % kProjectLanes == 0);

/**
 * projectLanes() over lanes [h, h + kProjectLanes) of L-lane rows.
 * Each lane finds where atom i lands under its (reward, gamma): the
 * neighbours lo/hi of the fractional index b of clamp(r + gamma*z_i,
 * vmin, vmax), capped at the last atom, weighted hi - b and b - lo
 * (b >= +0, so truncation is floor(b) and floor + (floor < b) is
 * ceil(b); the indices stay doubles, integral and small). It then adds
 * the atom's mass p, scaled by each weight and rounded to float, to
 * the target entries lo and hi, or p alone when they coincide; an atom
 * without mass (p <= 0) adds nothing — all in ascending atom order, as
 * one scatter-add per neighbour would.
 *
 * The landing points move one way, up the atoms for gamma >= 0 and
 * down for gamma < 0, so each lane holds its two open entries cur and
 * cur + 1 in registers (acc0, acc1) and moves them with its landing
 * point; an entry it moves past is never touched again, and one it
 * moves onto is an untouched zero unless it was the other open entry.
 * Every atom stores both open entries, so an entry's last store is
 * its final value. The adds chain through registers instead of a
 * store and a reload per add, with no branch.
 * Where the scatter-adds add nothing (no mass, or a hi that is lo),
 * the lane adds +0, which leaves an entry, never -0, as it is.
 */
SIBYL_KERNEL_CLONES
void
projectLanesImpl(double vmin, double vmax, double delta, double last,
                 std::uint32_t atoms, std::size_t L, std::size_t h,
                 const float *nextProbs, const double *rewards,
                 double gamma, float *target)
{
    constexpr std::size_t P = kProjectLanes;
    typedef double D __attribute__((vector_size(P * sizeof(double))));
    typedef std::int32_t I
        __attribute__((vector_size(P * sizeof(std::int32_t))));
    using F = ml::simd::Vec<P>;
    using ml::simd::vecAt;
    const D zero = {};
    const D vminV = zero + vmin, vmaxV = zero + vmax;
    const D lastV = zero + last;
    // A lane with a non-finite reward comes out NaN (below); its
    // geometry runs on a zero reward so its indices stay in range.
    D reward;
    for (std::size_t l = 0; l < P; l++)
        reward[l] = std::isfinite(rewards[h + l]) ? rewards[h + l] : 0.0;
    I cur = {};
    F acc0 = {}, acc1 = {};
    for (std::uint32_t i = 0; i < atoms; i++) {
        const double z = vmin + delta * static_cast<double>(i);
        const D v = reward + gamma * z;
        const D tz = v < vminV ? vminV : (vmaxV < v ? vmaxV : v);
        const D b = (tz - vmin) / delta;
        const D fl =
            __builtin_convertvector(__builtin_convertvector(b, I), D);
        const D ce = fl < b ? fl + 1.0 : fl;
        const D lo = lastV < fl ? lastV : fl; // std::min
        const D hi = lastV < ce ? lastV : ce;
        const D p = __builtin_convertvector(
            F(vecAt<P>(nextProbs + i * L + h)), D);
        const I mass = __builtin_convertvector(~(p <= zero), I);
        const I split = __builtin_convertvector(lo != hi, I);
        const F toLo =
            __builtin_convertvector(lo != hi ? p * (hi - b) : p, F);
        const F toHi = __builtin_convertvector(p * (b - lo), F);

        for (std::size_t l = 0; l < P; l++) {
            target[cur[l] * L + h + l] = acc0[l];
            target[(cur[l] + 1) * L + h + l] = acc1[l];
        }
        const I land = __builtin_convertvector(lo, I);
        const I step = land - cur;
        const F open0 = acc0;
        acc0 = step == 0 ? acc0 : (step == 1 ? acc1 : F{});
        acc1 = step == 0 ? acc1 : (step == -1 ? open0 : F{});
        cur = land;
        acc0 += mass ? toLo : F{};
        acc1 += (mass & split) ? toHi : F{};
    }
    for (std::size_t l = 0; l < P; l++) {
        target[cur[l] * L + h + l] = acc0[l];
        target[(cur[l] + 1) * L + h + l] = acc1[l];
        // A non-finite reward must surface as a non-finite training
        // loss, not launder itself into a valid distribution.
        if (!std::isfinite(rewards[h + l]))
            for (std::uint32_t j = 0; j < atoms; j++)
                target[j * L + h + l] =
                    std::numeric_limits<float>::quiet_NaN();
    }
}

} // namespace

void
CategoricalSupport::projectLanes(const float *nextProbs,
                                 const double *rewards, double gamma,
                                 float *target) const
{
    constexpr std::size_t L = ml::kSoftmaxLanes;
    assert(!std::isnan(gamma));
    std::fill_n(target, (atoms_ + 1) * L, 0.0f);
    for (std::size_t h = 0; h < L; h += kProjectLanes)
        projectLanesImpl(vmin_, vmax_, delta_,
                         static_cast<double>(atoms_ - 1), atoms_, L, h,
                         nextProbs, rewards, gamma, target);
}

} // namespace sibyl::rl
