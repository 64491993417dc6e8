/**
 * @file
 * The gradient-descent optimizer.
 *
 * The paper trains Sibyl's training network with stochastic gradient
 * descent (Algorithm 1, line 18); every learner here (the value agents
 * and Archivist's classifier) steps with Adam, the optimizer the
 * TF-Agents C51 implementation uses by default.
 */

#pragma once

#include <vector>

#include "ml/network.hh"

namespace sibyl::ml
{

/**
 * Adam (Kingma & Ba, 2015).
 *
 * Its element update gives exactly the bits of the plain float
 * expressions, but never hands a subnormal to a multiply, divide or
 * square root: moment estimates of units that only see zero
 * gradients sit at subnormal fixed points of m <- b1 * m, where x86
 * would take a microcode assist on every step (see optimizer.cc).
 */
class Adam
{
  public:
    explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /**
     * Apply one update using the gradients accumulated in @p net
     * (divided by @p batchSize) and clear them.
     */
    void step(Network &net, std::size_t batchSize);

    /** Learning rate (hyper-parameter alpha in Table 2). */
    double learningRate() const { return lr_; }
    void setLearningRate(double lr) { lr_ = lr; }

    /** Per-layer first and second moment estimates, [weights...,
     *  bias...] each; empty until the first step() sizes them (tests
     *  preset them). */
    std::vector<std::vector<float>> &firstMoments() { return m_; }
    std::vector<std::vector<float>> &secondMoments() { return v_; }

  private:
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    std::uint64_t t_ = 0;
    std::vector<std::vector<float>> m_;
    std::vector<std::vector<float>> v_;
};

} // namespace sibyl::ml
