/**
 * @file
 * Gradient-descent optimizers.
 *
 * The paper trains Sibyl's training network with stochastic gradient
 * descent (Algorithm 1, line 18); we provide plain SGD plus Adam, which
 * the TF-Agents C51 implementation uses by default. SibylConfig selects
 * Adam by default and exposes SGD for ablation.
 */

#pragma once

#include <vector>

#include "ml/network.hh"

namespace sibyl::ml
{

/** Abstract optimizer over a Network's accumulated gradients. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /**
     * Apply one update using the gradients accumulated in @p net (divided
     * by @p batchSize) and clear them.
     */
    virtual void step(Network &net, std::size_t batchSize) = 0;

    /** Learning rate accessor (hyper-parameter alpha in Table 2). */
    virtual double learningRate() const = 0;
    virtual void setLearningRate(double lr) = 0;
};

/** Plain SGD. */
class Sgd : public Optimizer
{
  public:
    explicit Sgd(double lr);

    void step(Network &net, std::size_t batchSize) override;
    double learningRate() const override { return lr_; }
    void setLearningRate(double lr) override { lr_ = lr; }

  private:
    double lr_;
};

/**
 * Adam (Kingma & Ba, 2015).
 *
 * Its element update gives exactly the bits of the plain float
 * expressions, but never hands a subnormal to a multiply, divide or
 * square root: moment estimates of units that only see zero
 * gradients sit at subnormal fixed points of m <- b1 * m, where x86
 * would take a microcode assist on every step (see optimizer.cc).
 */
class Adam : public Optimizer
{
  public:
    explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    void step(Network &net, std::size_t batchSize) override;
    double learningRate() const override { return lr_; }
    void setLearningRate(double lr) override { lr_ = lr; }

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
