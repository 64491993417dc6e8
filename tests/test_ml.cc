/**
 * @file
 * Unit and property tests for the ML substrate: matrix kernels,
 * activations (with finite-difference gradient checks), losses, dense
 * layers, networks, and optimizers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <xmmintrin.h>
#endif

#include "common/rng.hh"
#include "ml/activations.hh"
#include "ml/layers.hh"
#include "ml/loss.hh"
#include "ml/matrix.hh"
#include "ml/network.hh"
#include "ml/optimizer.hh"

namespace sibyl::ml
{
namespace
{

TEST(Matrix, MatVec)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1 1 1]' = [6 15]'
    float v = 1.0f;
    for (std::size_t r = 0; r < 2; r++)
        for (std::size_t c = 0; c < 3; c++)
            m(r, c) = v++;
    Vector x = {1.0f, 1.0f, 1.0f}, y;
    m.matvec(x, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 6.0f);
    EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(Matrix, MatVecTransposed)
{
    Matrix m(2, 3);
    float v = 1.0f;
    for (std::size_t r = 0; r < 2; r++)
        for (std::size_t c = 0; c < 3; c++)
            m(r, c) = v++;
    Vector x = {1.0f, 2.0f}, y;
    m.matvecTransposed(x, y);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_FLOAT_EQ(y[0], 1.0f + 8.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f + 10.0f);
    EXPECT_FLOAT_EQ(y[2], 3.0f + 12.0f);
}

TEST(Matrix, AddOuter)
{
    Matrix m(2, 2, 1.0f);
    m.addOuter({1.0f, 2.0f}, {3.0f, 4.0f}, 0.5f);
    EXPECT_FLOAT_EQ(m(0, 0), 1.0f + 1.5f);
    EXPECT_FLOAT_EQ(m(1, 1), 1.0f + 4.0f);
}

TEST(Matrix, VectorHelpers)
{
    Vector a = {1.0f, 2.0f}, b = {3.0f, 4.0f};
    EXPECT_FLOAT_EQ(dot(a, b), 11.0f);
    axpy(a, b, 2.0f);
    EXPECT_FLOAT_EQ(b[0], 5.0f);
    EXPECT_FLOAT_EQ(norm(a), std::sqrt(5.0f));
}

// ---------------------------------------------------------------------
// Activation property test: analytic derivative must match a central
// finite difference at a sweep of points, for every activation kind.
// ---------------------------------------------------------------------

class ActivationGradTest : public ::testing::TestWithParam<Activation>
{
};

TEST_P(ActivationGradTest, MatchesFiniteDifference)
{
    Activation a = GetParam();
    const float h = 1e-3f;
    for (float x = -4.0f; x <= 4.0f; x += 0.37f) {
        float numeric = (activate(a, x + h) - activate(a, x - h)) / (2 * h);
        float analytic = activateGrad(a, x);
        // ReLU is non-differentiable at 0; skip the kink.
        if (a == Activation::ReLU && std::abs(x) < 2 * h)
            continue;
        EXPECT_NEAR(analytic, numeric, 5e-3)
            << activationName(a) << " at x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationGradTest,
    ::testing::Values(Activation::Identity, Activation::ReLU,
                      Activation::Sigmoid, Activation::Tanh,
                      Activation::Swish),
    [](const auto &info) { return activationName(info.param); });

TEST(Softmax, SumsToOne)
{
    Vector v = {1.0f, 2.0f, 3.0f, -1.0f};
    softmax(v);
    float sum = 0.0f;
    for (float p : v) {
        EXPECT_GT(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_GT(v[2], v[0]);
}

TEST(Softmax, StableForLargeLogits)
{
    Vector v = {1000.0f, 1001.0f};
    softmax(v);
    EXPECT_FALSE(std::isnan(v[0]));
    EXPECT_NEAR(v[0] + v[1], 1.0f, 1e-6);
}

TEST(GroupedSoftmax, IndependentGroups)
{
    Vector v = {0.0f, 0.0f, 100.0f, 0.0f};
    groupedSoftmax(v, 2);
    EXPECT_NEAR(v[0], 0.5f, 1e-6);
    EXPECT_NEAR(v[1], 0.5f, 1e-6);
    EXPECT_NEAR(v[2], 1.0f, 1e-6);
    EXPECT_NEAR(v[3], 0.0f, 1e-6);
}

TEST(Loss, MseZeroAtTarget)
{
    Vector grad;
    EXPECT_FLOAT_EQ(mseLoss({1.0f, 2.0f}, {1.0f, 2.0f}, grad), 0.0f);
    EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(Loss, MseGradientDirection)
{
    Vector grad;
    mseLoss({2.0f}, {1.0f}, grad);
    EXPECT_GT(grad[0], 0.0f); // pred too high -> positive gradient
}

TEST(Loss, SoftmaxCrossEntropyGradient)
{
    // Closed form: grad = softmax(logits) - target.
    Vector logits = {0.5f, -0.2f, 1.0f};
    Vector target = {0.2f, 0.3f, 0.5f};
    Vector grad;
    float loss = softmaxCrossEntropy(logits, target, grad);
    EXPECT_GT(loss, 0.0f);
    Vector probs = logits;
    softmax(probs);
    for (int i = 0; i < 3; i++)
        EXPECT_NEAR(grad[i], probs[i] - target[i], 1e-6);
}

TEST(Loss, BinaryCrossEntropy)
{
    float g = 0.0f;
    // Very confident correct prediction -> tiny loss, tiny gradient.
    float loss = binaryCrossEntropy(10.0f, 1.0f, g);
    EXPECT_LT(loss, 0.01f);
    EXPECT_NEAR(g, 0.0f, 0.01f);
    // Confident wrong prediction -> large loss, gradient toward target.
    loss = binaryCrossEntropy(10.0f, 0.0f, g);
    EXPECT_GT(loss, 5.0f);
    EXPECT_GT(g, 0.9f);
}

// ---------------------------------------------------------------------
// Network gradient check: backprop gradients of a small random network
// must match finite differences of the loss w.r.t. every parameter.
// ---------------------------------------------------------------------

TEST(Network, GradientCheck)
{
    Pcg32 rng(5);
    Network net(3, {{4, Activation::Swish}, {2, Activation::Identity}},
                rng);
    Vector x = {0.3f, -0.7f, 1.1f};
    Vector target = {0.7f, 0.3f};

    auto lossAt = [&]() {
        Vector g;
        return softmaxCrossEntropy(net.forward(x), target, g);
    };

    // Analytic gradients.
    Vector gradOut;
    softmaxCrossEntropy(net.forward(x), target, gradOut);
    net.clearGrads();
    net.forward(x);
    net.backward(gradOut);

    const float h = 1e-3f;
    for (auto &layer : net.layers()) {
        Matrix &gw = layer.gradWeights();
        // Spot-check a handful of weights per layer. Every mutation
        // goes through the weights() accessor so the layer's cached
        // W^T is invalidated before the next forward — the documented
        // mutation contract (the forward paths all read the cache).
        for (std::size_t i = 0; i < layer.weights().size(); i += 3) {
            float orig = layer.weights().data()[i];
            layer.weights().data()[i] = orig + h;
            float up = lossAt();
            layer.weights().data()[i] = orig - h;
            float down = lossAt();
            layer.weights().data()[i] = orig;
            float numeric = (up - down) / (2 * h);
            EXPECT_NEAR(gw.data()[i], numeric, 5e-3);
        }
    }
}

TEST(Network, CopyWeightsMakesOutputsIdentical)
{
    Pcg32 rng(5);
    Network a(4, {{8, Activation::Swish}, {3, Activation::Identity}}, rng);
    Network b(4, {{8, Activation::Swish}, {3, Activation::Identity}}, rng);
    Vector x = {0.1f, 0.2f, 0.3f, 0.4f};
    // Different random init -> different outputs.
    Vector ya = a.forward(x);
    Vector yb = b.forward(x);
    EXPECT_NE(ya, yb);
    b.copyWeightsFrom(a);
    EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Network, SaveLoadRoundTrip)
{
    Pcg32 rng(5);
    Network a(4, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    Network b(4, {{6, Activation::Tanh}, {2, Activation::Identity}}, rng);
    auto params = a.saveParams();
    EXPECT_EQ(params.size(), a.paramCount());
    b.loadParams(params);
    Vector x = {1.0f, -1.0f, 0.5f, 0.0f};
    EXPECT_EQ(a.forward(x), b.forward(x));
    EXPECT_THROW(b.loadParams({1.0f}), std::invalid_argument);
}

TEST(Network, ParamCountMatchesPaperTopology)
{
    // The paper's network: 6 -> 20 -> 30 -> 2 has 780 weights (§10.1).
    Pcg32 rng(5);
    Network net(6,
                {{20, Activation::Swish},
                 {30, Activation::Swish},
                 {2, Activation::Identity}},
                rng);
    std::size_t weights = 6 * 20 + 20 * 30 + 30 * 2;
    std::size_t biases = 20 + 30 + 2;
    EXPECT_EQ(net.paramCount(), weights + biases);
}

TEST(Optimizer, AdamConvergesOnRegression)
{
    Pcg32 rng(5);
    Network net(3, {{8, Activation::Swish}, {1, Activation::Identity}},
                rng);
    Adam opt(1e-2);
    // Learn f(x) = x0 + 2*x1 - x2.
    Pcg32 data(17);
    double lastLoss = 0.0;
    for (int epoch = 0; epoch < 300; epoch++) {
        lastLoss = 0.0;
        for (int s = 0; s < 16; s++) {
            Vector x = {static_cast<float>(data.nextDouble(-1, 1)),
                        static_cast<float>(data.nextDouble(-1, 1)),
                        static_cast<float>(data.nextDouble(-1, 1))};
            Vector target = {x[0] + 2 * x[1] - x[2]};
            Vector grad;
            lastLoss += mseLoss(net.forward(x), target, grad);
            net.backward(grad);
        }
        opt.step(net, 16);
    }
    EXPECT_LT(lastLoss / 16, 0.01);
}

TEST(Optimizer, StepClearsGradients)
{
    Pcg32 rng(5);
    Network net(2, {{2, Activation::Identity}}, rng);
    Adam opt(0.1);
    Vector grad = {1.0f, 1.0f};
    const Vector x = {1.0f, 1.0f};
    net.forward(x);
    net.backward(grad);
    DenseLayer &layer = net.layers()[0];
    ASSERT_NE(layer.gradWeights()(0, 0), 0.0f);
    opt.step(net, 1);
    for (std::size_t i = 0; i < layer.gradWeights().size(); i++)
        EXPECT_EQ(layer.gradWeights().data()[i], 0.0f) << i;
    for (const float g : layer.gradBias())
        EXPECT_EQ(g, 0.0f);
}

// ---------------------------------------------------------------------
// Adam's element update, pinned bit for bit. The oracle is the plain
// scalar float loop of the update expressions; every array after
// step() must match it byte for byte on subnormal, boundary,
// signed-zero, infinite and NaN inputs, whichever of Adam's plain
// float and exact double forms ran for a block.
// ---------------------------------------------------------------------

/** One layer's optimizer state, flat as [weights..., bias...]. */
struct OptState
{
    std::vector<float> p, g, m, v;
};

void
adamOracle(OptState &s, std::size_t batchSize, double lr, std::uint64_t t,
           double beta1 = 0.9)
{
    const double beta2 = 0.999, epsD = 1e-8;
    float scale = 1.0f / static_cast<float>(batchSize);
    double corr1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    double corr2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    const float stepSize = static_cast<float>(lr * std::sqrt(corr2) / corr1);
    const float b1 = static_cast<float>(beta1);
    const float b1c = static_cast<float>(1.0 - beta1);
    const float b2 = static_cast<float>(beta2);
    const float b2c = static_cast<float>(1.0 - beta2);
    const float eps = static_cast<float>(epsD);
    float *p = s.p.data(), *g = s.g.data(), *m = s.m.data(), *v = s.v.data();
    for (std::size_t i = 0; i < s.p.size(); i++) {
        const float grad = g[i] * scale;
        g[i] = 0.0f;
        m[i] = b1 * m[i] + b1c * grad;
        v[i] = b2 * v[i] + b2c * grad * grad;
        p[i] -= stepSize * m[i] / (std::sqrt(v[i]) + eps);
    }
}

/** A one-layer network of n = nIn * nOut + nOut parameters. */
struct OneLayer
{
    Pcg32 rng{3};
    Network net;
    OneLayer(std::size_t nIn, std::size_t nOut)
        : net(nIn, {{nOut, Activation::Identity}}, rng)
    {
    }

    DenseLayer &layer() { return net.layers()[0]; }

    void load(const OptState &s)
    {
        const std::size_t nw = layer().weights().size();
        std::copy(s.p.begin(), s.p.begin() + nw, layer().weights().data());
        std::copy(s.p.begin() + nw, s.p.end(), layer().bias().data());
        std::copy(s.g.begin(), s.g.begin() + nw,
                  layer().gradWeights().data());
        std::copy(s.g.begin() + nw, s.g.end(), layer().gradBias().data());
    }

    void store(OptState &s)
    {
        const std::size_t nw = layer().weights().size();
        const float *w = layer().weights().data();
        const float *gw = layer().gradWeights().data();
        std::copy(w, w + nw, s.p.begin());
        std::copy(layer().bias().data(),
                  layer().bias().data() + layer().bias().size(),
                  s.p.begin() + nw);
        std::copy(gw, gw + nw, s.g.begin());
        std::copy(layer().gradBias().data(),
                  layer().gradBias().data() + layer().gradBias().size(),
                  s.g.begin() + nw);
    }
};

std::uint32_t
bitsOf(float x)
{
    return std::bit_cast<std::uint32_t>(x);
}

float
fromBits(std::uint32_t b)
{
    return std::bit_cast<float>(b);
}

void
expectSameBits(const std::vector<float> &got,
               const std::vector<float> &want, const char *what,
               const OptState &in)
{
    ASSERT_EQ(got.size(), want.size());
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
        0)
        return;
    std::size_t i = 0;
    while (bitsOf(got[i]) == bitsOf(want[i]))
        i++;
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "%s[%zu]: got %08x want %08x (p %08x g %08x m %08x "
                  "v %08x)",
                  what, i, bitsOf(got[i]), bitsOf(want[i]), bitsOf(in.p[i]),
                  bitsOf(in.g[i]), bitsOf(in.m[i]), bitsOf(in.v[i]));
    ADD_FAILURE() << msg;
}

/** Run Adam::step @p steps times from @p in (the gradients reloaded
 *  before each step) and compare every array with the oracle. */
void
expectAdamMatchesOracle(const OptState &in, std::size_t nIn,
                        std::size_t nOut, std::size_t batchSize, double lr,
                        int steps = 1, double beta1 = 0.9)
{
    ASSERT_EQ(in.p.size(), nIn * nOut + nOut);
    OneLayer one(nIn, nOut);
    Adam opt(lr, beta1);
    opt.firstMoments() = {in.m};
    opt.secondMoments() = {in.v};
    OptState got = in, want = in;
    for (int t = 1; t <= steps; t++) {
        got.g = in.g;
        one.load(got);
        opt.step(one.net, batchSize);
        one.store(got);
        want.g = in.g;
        adamOracle(want, batchSize, lr, static_cast<std::uint64_t>(t),
                   beta1);
    }
    got.m = opt.firstMoments()[0];
    got.v = opt.secondMoments()[0];
    expectSameBits(got.p, want.p, "p", in);
    expectSameBits(got.g, want.g, "g", in);
    expectSameBits(got.m, want.m, "m", in);
    expectSameBits(got.v, want.v, "v", in);
}

constexpr float kMinNormal = FLT_MIN;                  // 2^-126
constexpr float kDenormMin = 1.40129846e-45f;          // 2^-149

/**
 * Values near every magnitude at which one of the updates' products,
 * quotients or square roots crosses 2^-126 (with either sign, a few
 * ulps each side), plus subnormals, zeros, infinities, NaN and
 * ordinary values. There is one NaN: which payload an add of two
 * different NaNs returns is up to the compiler's operand order (IEEE
 * 754 leaves it open), in the oracle and Adam alike.
 */
std::vector<float>
edgeValues(double stepSize)
{
    const double centers[] = {
        0x1p-126,                        // the boundary itself
        0x1p-126 / 0.9,                  // b1 * m
        0x1p-126 / 0.1,                  // (1 - b1) * grad
        0x1p-126 / 0.999,                // b2 * v
        0x1p-126 / 0.001,                // (1 - b2) * grad
        std::sqrt(0x1p-126 / 0.001),     // (1 - b2) * grad * grad
        0x1p-126 / stepSize,             // stepSize * m
        0x1p-126 * 128.0,                // grad = g / 128
        0x1p-126 * 1e-8 / stepSize,      // quotient over eps
        1.0e-30, 1.0e-20, 1.0e-8, 1.0, 1.0e10, 1.0e30, 0x1p-100,
    };
    std::vector<float> out;
    for (double c : centers) {
        const std::uint32_t b = bitsOf(static_cast<float>(c));
        for (int d = -3; d <= 3; d++) {
            if (static_cast<int>(b) + d < 0)
                continue;
            out.push_back(fromBits(b + d));
            out.push_back(-fromBits(b + d));
        }
    }
    for (std::uint32_t k : {1u, 2u, 3u, 4u, 5u, 499u, 500u, 501u,
                            0x400000u, 0x7fffffu})
        for (float sign : {1.0f, -1.0f})
            out.push_back(sign * fromBits(k));
    const float inf = std::numeric_limits<float>::infinity();
    for (float x : {0.0f, -0.0f, inf, -inf,
                    std::numeric_limits<float>::quiet_NaN()})
        out.push_back(x);
    return out;
}

/** @p n lanes drawing p, g, m and v independently from @p pool. */
OptState
randomState(const std::vector<float> &pool, std::size_t n,
            std::uint64_t seed)
{
    Pcg32 rng(seed);
    OptState s;
    for (auto *a : {&s.p, &s.g, &s.m, &s.v}) {
        a->resize(n);
        for (float &x : *a)
            x = pool[rng.nextBounded(static_cast<std::uint32_t>(pool.size()))];
    }
    return s;
}

TEST(OptimizerBits, AdamEverySubnormalFirstMoment)
{
    // Every +-subnormal m (and +-0) with g = +-0, in chunks of 2^20.
    const std::size_t nIn = 1023, nOut = 1024, n = nIn * nOut + nOut;
    const float vs[] = {0.0f, 7 * kDenormMin, 300 * kDenormMin, 1e-20f,
                        1.0f};
    for (std::uint32_t sign : {0u, 0x80000000u}) {
        for (std::uint32_t chunk = 0; chunk < 8; chunk++) {
            OptState s;
            s.p.resize(n);
            s.g.resize(n);
            s.m.resize(n);
            s.v.resize(n);
            for (std::size_t i = 0; i < n; i++) {
                s.m[i] = fromBits(sign | (chunk << 20 | i));
                s.g[i] = i & 1 ? -0.0f : 0.0f;
                s.v[i] = vs[i % 5];
                s.p[i] = static_cast<float>(static_cast<int>(i % 7) - 3) *
                         0.25f;
            }
            expectAdamMatchesOracle(s, nIn, nOut, 1, 1e-2);
            if (HasFailure())
                return;
        }
    }
}

TEST(OptimizerBits, AdamStuckFixedPoints)
{
    // With g = 0, m = k * 2^-149 is a fixed point of m <- 0.9f * m for
    // k <= 4, and v = k * 2^-149 one of v <- 0.999f * v for k < 500.
    const std::size_t nIn = 7, nOut = 150, n = nIn * nOut + nOut; // 1200
    OptState s;
    for (std::size_t i = 0; i < n; i++) {
        const std::uint32_t k = static_cast<std::uint32_t>(i % 600) + 1;
        s.m.push_back((i / 600 ? -1.0f : 1.0f) * fromBits(k % 9));
        s.v.push_back(fromBits(k));
        s.g.push_back(0.0f);
        s.p.push_back(0.5f);
    }
    expectAdamMatchesOracle(s, nIn, nOut, 1, 1e-2);

    OneLayer one(nIn, nOut);
    Adam opt(1e-2);
    opt.firstMoments() = {s.m};
    opt.secondMoments() = {s.v};
    one.load(s);
    opt.step(one.net, 1);
    for (std::size_t i = 0; i < n; i++) {
        const std::uint32_t k = static_cast<std::uint32_t>(i % 600) + 1;
        if (k % 9 >= 1 && k % 9 <= 4) {
            EXPECT_EQ(bitsOf(opt.firstMoments()[0][i]), bitsOf(s.m[i]))
                << i;
        }
        if (k < 500) {
            EXPECT_EQ(bitsOf(opt.secondMoments()[0][i]), bitsOf(s.v[i]))
                << i;
        }
    }
}

TEST(OptimizerBits, AdamEdgeValues)
{
    // lr 10 puts stepSize above 1 at t = 1; batch 128 scales gradients
    // down by 2^-7. 37 x 3 weights plus 3 biases leave ragged tails.
    for (double lr : {1e-2, 10.0}) {
        const double stepSize = lr * std::sqrt(1.0 - 0.999) / (1.0 - 0.9);
        const std::vector<float> pool = edgeValues(stepSize);
        for (std::size_t batch : {1u, 128u}) {
            SCOPED_TRACE(testing::Message() << "lr " << lr << " batch "
                                            << batch);
            expectAdamMatchesOracle(randomState(pool, 114, 1), 37, 3,
                                    batch, lr);
            expectAdamMatchesOracle(randomState(pool, 1 << 18, 2), 511, 512,
                                    batch, lr);
            expectAdamMatchesOracle(randomState(pool, 4160, 3), 64, 64,
                                    batch, lr, 3);
        }
    }
}

TEST(OptimizerBits, AdamSpecialValuesCrossProduct)
{
    // Every combination of +-0, +-Inf, NaN and a subnormal over
    // (p, g, m, v): 6^4 = 1296 lanes.
    const float inf = std::numeric_limits<float>::infinity();
    const float vals[] = {0.0f, -0.0f, inf, -inf,
                          std::numeric_limits<float>::quiet_NaN(),
                          3 * kDenormMin};
    OptState s;
    for (float p : vals)
        for (float g : vals)
            for (float m : vals)
                for (float v : vals) {
                    s.p.push_back(p);
                    s.g.push_back(g);
                    s.m.push_back(m);
                    s.v.push_back(v);
                }
    for (std::size_t batch : {1u, 128u})
        expectAdamMatchesOracle(s, 35, 36, batch, 1e-2);
}

/**
 * Dead units beside live ones: blocks of eight lanes, two with live
 * gradients and six with g = +-0 and a decaying m; a block's dead
 * lanes share |m| and p's exponent, signs vary per lane (so q pulls
 * some p toward zero and some away), and most have v = 0, which makes
 * the divisor eps, where the bound below which p cannot move is nearly
 * tight. Even blocks start m anywhere from 1 to 2^-149, so it decays
 * from a normal through the screen band, [2^-126, 2^-126 / 0.9) and the
 * subnormals to the fixed points of m <- 0.9f * m. Odd blocks put
 * |p| in [2^-82, 2^-34], where the bound falls in m's screen band, with
 * m either on both sides of the bound at the first step (powers of two,
 * whose spacing toward zero is half, and non-powers) or 2^6 to 2^15
 * above it, crossing it later; the smallest p never pass the bound's
 * floor. Every fifth block also holds a subnormal v and every seventh a
 * p of +-0, a subnormal, +-Inf or NaN; neither is a zero-gradient lane.
 */
OptState
deadUnitState(std::size_t n)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float mStarts[] = {
        1.0f, 0.3f, 1e-5f, 1e-12f, 1e-20f, 1e-30f, 0x1p-100f, 0x1p-120f,
        0x1.08p-126f, kMinNormal, 0x1.fffffep-126f, fromBits(0x400000u),
        fromBits(1000u), fromBits(6u), fromBits(5u), fromBits(4u),
        kDenormMin};
    const float specialP[] = {0.0f, -0.0f, 3 * kDenormMin, inf, -inf,
                              std::numeric_limits<float>::quiet_NaN()};
    OptState s;
    for (std::size_t i = 0; i < n; i++) {
        const std::size_t b = i / 8, j = i % 8;
        const float sign = (i * 5 + b) % 3 ? 1.0f : -1.0f;
        if (j < 2) {
            // Live: ordinary gradient, moments and weight.
            s.g.push_back(sign * (j ? 0.5f : 1e-3f));
            s.m.push_back(-sign * 1e-3f);
            s.v.push_back(1e-4f);
            s.p.push_back(0.25f * static_cast<float>(b % 5) - 0.5f);
            continue;
        }
        // At t = 1, q = stepSize m' / eps reaches half of p's spacing,
        // 2^(e - 25), where |m| = 2^(e - 44) * 1.84; a bound twice as
        // loose would pass |m| up to 2^(e - 44) * 3.3.
        const int e = b % 2 ? -34 - static_cast<int>(b * 13 % 49)
                            : static_cast<int>(b * 29 % 171) - 110;
        const float m =
            b % 4 == 1 ? std::ldexp(1.5f + 0.25f * (b / 4 % 8), e - 44)
            : b % 4 == 3 ? std::ldexp(1.0f, e - 37 + b / 4 % 10)
                         : mStarts[b / 2 % std::size(mStarts)];
        const float p = std::ldexp(j % 2 ? 1.5f : 1.0f, e);
        s.g.push_back(j % 2 ? -0.0f : 0.0f);
        s.m.push_back(sign * m);
        s.v.push_back(b % 5 == 4 && j == 3 ? fromBits(300u)
                      : j == 6             ? 1e-4f
                      : j == 7             ? 1.0f
                                           : 0.0f);
        s.p.push_back(b % 7 == 3 && j == 7
                          ? specialP[(b / 7) % std::size(specialP)]
                          : (i / 3) % 2 ? p : -p);
    }
    return s;
}

TEST(OptimizerBits, AdamZeroGradientLanes)
{
    // 35 x 36 weights and 36 biases: both spans end in a ragged block.
    const OptState s = deadUnitState(35 * 36 + 36);
    for (std::size_t batch : {1u, 128u}) {
        SCOPED_TRACE(testing::Message() << "batch " << batch);
        expectAdamMatchesOracle(s, 35, 36, batch, 1e-2, 1500);
    }
}

TEST(OptimizerBits, AdamZeroGradientLanesOtherBeta1)
{
    // Dead lanes with every subnormal mantissa k up to 600 under other
    // first-moment decays. The fixed points m = k * 2^-149 of
    // m <- b1 * m end at k = 1 for 0.6, at the tie k (1 - b1) = 1/2 for
    // 0.75 (k = 2, which rounds back to itself, to even), at k = 50 for
    // 0.99f and beyond 600 for 0.9999.
    const std::size_t nIn = 15, nOut = 40, n = nIn * nOut + nOut; // 640
    OptState s;
    for (std::size_t i = 0; i < n; i++) {
        const std::uint32_t k = static_cast<std::uint32_t>(i % 600) + 1;
        s.m.push_back((i / 600 ? -1.0f : 1.0f) * fromBits(k));
        s.v.push_back(i % 3 ? 1e-4f : 0.0f);
        s.g.push_back(i % 2 ? -0.0f : 0.0f);
        s.p.push_back(i % 5 ? 0.5f : -1.5f);
    }
    for (double beta1 : {0.6, 0.75, 0.99, 0.9999}) {
        SCOPED_TRACE(testing::Message() << "beta1 " << beta1);
        expectAdamMatchesOracle(s, nIn, nOut, 1, 1e-2, 40, beta1);
    }
}

#if defined(__x86_64__) || defined(__i386__)
/** Whether @p fn set MXCSR's denormal-operand flag: an instruction read
 *  a subnormal float, which is what costs a microcode assist. */
template <typename Fn>
bool
readsSubnormal(Fn &&fn)
{
    _mm_setcsr(_mm_getcsr() & ~_MM_EXCEPT_MASK);
    fn();
    const bool denormal = _mm_getcsr() & _MM_EXCEPT_DENORM;
    _mm_setcsr(_mm_getcsr() & ~_MM_EXCEPT_MASK);
    return denormal;
}

TEST(OptimizerBits, StuckSubnormalStateReadsNoSubnormal)
{
    // Dead units: zero gradients over moments stuck at subnormal fixed
    // points. The plain float loop reads subnormals on every step; Adam
    // must not (the deterministic form of its speed).
    const std::size_t nIn = 15, nOut = 16, n = nIn * nOut + nOut;
    OptState s;
    for (std::size_t i = 0; i < n; i++) {
        s.m.push_back((i & 1 ? -1.0f : 1.0f) *
                      fromBits(static_cast<std::uint32_t>(i % 4) + 1));
        s.v.push_back(fromBits(static_cast<std::uint32_t>(i % 400) + 1));
        s.g.push_back(0.0f);
        s.p.push_back(i % 3 ? 0.25f : -0.5f);
    }
    OptState oracle = s;
    EXPECT_TRUE(readsSubnormal([&] { adamOracle(oracle, 1, 1e-2, 1); }));

    OneLayer one(nIn, nOut);
    Adam adam(1e-2);
    adam.firstMoments() = {s.m};
    adam.secondMoments() = {s.v};
    one.load(s);
    EXPECT_FALSE(readsSubnormal([&] {
        for (int t = 0; t < 5; t++)
            adam.step(one.net, 1);
    }));

    // Dead units still on their way down: m from 2^-100 through the
    // screen band, [2^-126, 2^-126 / 0.9) and the subnormals to the
    // fixed points, 200 steps.
    OptState d;
    for (std::size_t i = 0; i < n; i++) {
        const float m0 = std::ldexp(1.0f, -100 - static_cast<int>(i % 27));
        d.m.push_back((i & 1 ? -1.0f : 1.0f) *
                      (i % 9 == 4 ? 0x1.08p-126f : m0));
        d.v.push_back(i % 4 ? 1e-4f : 0.0f);
        d.g.push_back(i & 2 ? -0.0f : 0.0f);
        d.p.push_back(i % 3 ? 0.25f : -0.5f);
    }
    Adam decaying(1e-2);
    decaying.firstMoments() = {d.m};
    decaying.secondMoments() = {d.v};
    one.load(d);
    EXPECT_FALSE(readsSubnormal([&] {
        for (int t = 0; t < 200; t++)
            decaying.step(one.net, 1);
    }));
    // They did reach the subnormals (from 2^-100) and the fixed points
    // (from 2^-126).
    const std::vector<float> &m = decaying.firstMoments()[0];
    EXPECT_LT(bitsOf(m[0]), bitsOf(kMinNormal));
    EXPECT_LE(bitsOf(m[26]) & 0x7fffffffu, 4u);
}
#endif

// ---------------------------------------------------------------------
// logSpan, pinned bit for bit to the platform's std::log. The kernel
// transcribes glibc's logf, so on glibc every input must match; the
// sweeps cover the whole domain the C51 loss feeds it (softmax
// probabilities clamped at 1e-12) and more.
// ---------------------------------------------------------------------

/** Float step of the long sweeps: every float, except under
 *  AddressSanitizer (the Debug+ASan build), where the unoptimized
 *  kernel would take minutes and every 61st float is checked. */
#if defined(__SANITIZE_ADDRESS__)
constexpr std::uint32_t kLogSweepStride = 61;
#else
constexpr std::uint32_t kLogSweepStride = 1;
#endif

/** logSpan over @p x (in place when @p inPlace) against std::log;
 *  reports the first differing input. */
void
expectLogMatchesLibm(const std::vector<float> &x, bool inPlace = false)
{
    std::vector<float> want(x.size()), got = x;
    for (std::size_t i = 0; i < x.size(); i++)
        want[i] = std::log(x[i]);
    logSpan(inPlace ? got.data() : x.data(), got.data(), x.size());
    if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) ==
        0)
        return;
    std::size_t i = 0;
    while (bitsOf(got[i]) == bitsOf(want[i]))
        i++;
    char msg[120];
    std::snprintf(msg, sizeof(msg),
                  "log(%08x): got %08x want %08x (index %zu of %zu%s)",
                  bitsOf(x[i]), bitsOf(got[i]), bitsOf(want[i]), i, x.size(),
                  inPlace ? ", in place" : "");
    ADD_FAILURE() << msg;
}

/** Every @p stride-th float with bits in [lo, hi], in spans of a
 *  ragged length. */
void
sweepLog(std::uint32_t lo, std::uint32_t hi, std::uint32_t stride)
{
    constexpr std::size_t kSpan = (1u << 16) + 3;
    std::vector<float> x;
    x.reserve(kSpan);
    for (std::uint64_t b = lo; b <= hi; b += stride) {
        x.push_back(fromBits(static_cast<std::uint32_t>(b)));
        if (x.size() == kSpan || b + stride > hi) {
            expectLogMatchesLibm(x);
            x.clear();
            if (testing::Test::HasFailure())
                return;
        }
    }
}

TEST(LaneLog, EveryClampedProbability)
{
    // [1e-12, 1]: every input the C51 loss can give it.
    sweepLog(bitsOf(1e-12f), bitsOf(1.0f), kLogSweepStride);
}

TEST(LaneLog, FullBinades)
{
    sweepLog(bitsOf(1.0f), bitsOf(2.0f) - 1, kLogSweepStride);
    sweepLog(bitsOf(0x1p127f), bitsOf(FLT_MAX), kLogSweepStride);
}

TEST(LaneLog, EveryTableBoundary)
{
    // The table index changes every 2^19 floats from 0x3f330000, and
    // the exponent every 2^23; two floats either side of each, and of
    // each power of two, over the whole bit range (signs, zeros,
    // subnormals, Inf and NaN included).
    std::vector<float> x;
    for (std::uint32_t m = 0; m < (1u << 13); m++)
        for (std::uint32_t d = 0; d < 5; d++)
            x.push_back(fromBits(0x3f330000u + (m << 19) + d - 2));
    for (std::uint32_t e = 0; e < 512; e++)
        for (std::uint32_t d = 0; d < 5; d++)
            x.push_back(fromBits((e << 23) + d - 2));
    expectLogMatchesLibm(x);
}

TEST(LaneLog, SpecialValuesInEveryLane)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> specials = {0.0f,    -0.0f,     inf,        -inf,
                                   -1.0f,   -1e-12f,   -FLT_MAX,   -FLT_MIN,
                                   FLT_MIN, kDenormMin, -kDenormMin, 0.5f};
    for (std::uint32_t sign : {0u, 0x80000000u}) {
        for (std::uint32_t payload : {0u, 1u, 0x2a5u, 0x3fffffu}) {
            specials.push_back(fromBits(sign | 0x7fc00000u | payload));
            if (payload) // signalling
                specials.push_back(fromBits(sign | 0x7f800000u | payload));
        }
    }
    // Each special at every lane of a step and in ragged tails, among
    // ordinary probabilities.
    for (float v : specials) {
        for (std::size_t n = 1; n <= 19; n++) {
            for (std::size_t at = 0; at < n; at++) {
                std::vector<float> x(n);
                for (std::size_t i = 0; i < n; i++)
                    x[i] = 0.01f * static_cast<float>(i + 1);
                x[at] = v;
                expectLogMatchesLibm(x);
                expectLogMatchesLibm(x, true);
            }
        }
    }
    // Every positive subnormal.
    sweepLog(1u, bitsOf(FLT_MIN) - 1, kLogSweepStride);
}

} // namespace
} // namespace sibyl::ml
