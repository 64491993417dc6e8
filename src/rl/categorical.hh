/**
 * @file
 * Categorical (C51) value-distribution support and Bellman projection.
 *
 * Sibyl uses a Categorical Deep Q-Network (Bellemare et al., 2017): the
 * network predicts, for each action, a probability distribution over a
 * fixed support of return values ("atoms") instead of a single Q-value.
 * The distributional Bellman update r + gamma*z lands between atoms, so
 * the target distribution is projected back onto the support.
 */

#pragma once

#include <cstdint>

#include "ml/matrix.hh"

namespace sibyl::rl
{

/** Fixed return-value support z_0..z_{N-1}. */
class CategoricalSupport
{
  public:
    /**
     * @param vmin  Smallest representable return.
     * @param vmax  Largest representable return.
     * @param atoms Number of atoms (51 in C51).
     */
    CategoricalSupport(double vmin, double vmax, std::uint32_t atoms);

    double vmin() const { return vmin_; }
    double vmax() const { return vmax_; }
    std::uint32_t atoms() const { return atoms_; }
    double deltaZ() const { return delta_; }

    /** Value of atom @p i. */
    double atomValue(std::uint32_t i) const
    {
        return vmin_ + delta_ * static_cast<double>(i);
    }

    /** Expected value of a probability vector over this support. */
    double expectation(const ml::Vector &probs) const;

    /** Span variant: expected value of @p probs[0..atoms). */
    double expectation(const float *probs) const;

    /**
     * Project Bellman-updated distributions onto this support,
     * ml::kSoftmaxLanes at once, lanes across rows: lane l projects
     * nextProbs[i * L + l] (i over the atoms) under (rewards[l],
     * gamma), each atom's mass landing at clamp(r + gamma * z_i), into
     * target[j * L + l]. Each lane's target is the float scatter-add
     * of every atom's mass onto its two landing neighbours in
     * ascending atom order, and a lane with a non-finite reward is all
     * NaN. @p gamma must not be NaN.
     *
     * @param target (atoms + 1) x kSoftmaxLanes floats; the last row
     *               is scratch.
     */
    void projectLanes(const float *nextProbs, const double *rewards,
                      double gamma, float *target) const;

  private:
    double vmin_;
    double vmax_;
    std::uint32_t atoms_;
    double delta_;
};

} // namespace sibyl::rl
