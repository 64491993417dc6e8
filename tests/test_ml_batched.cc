/**
 * @file
 * Equivalence tests for the batched GEMM training engine: the blocked
 * matmul kernels against naive references, batched DenseLayer/Network
 * forward/backward against the per-sample path across every activation
 * kind, and whole-agent training (DQN and C51) batched vs. per-sample.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "common/rng.hh"
#include "ml/activations.hh"
#include "ml/layers.hh"
#include "ml/loss.hh"
#include "ml/matrix.hh"
#include "ml/network.hh"
#include "rl/c51_agent.hh"
#include "rl/dqn_agent.hh"

namespace sibyl::ml
{
namespace
{

constexpr float kRelTol = 1e-5f;

void
expectClose(float a, float b, const char *what)
{
    const float tol = kRelTol * std::max({1.0f, std::abs(a), std::abs(b)});
    EXPECT_NEAR(a, b, tol) << what;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Pcg32 &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); i++)
        m.data()[i] = static_cast<float>(rng.nextDouble(-1.0, 1.0));
    return m;
}

// ---------------------------------------------------------------------
// Kernel correctness against naive triple loops (odd shapes exercise
// the blocking and accumulator-tail paths).
// ---------------------------------------------------------------------

TEST(Matmul, MatchesNaive)
{
    Pcg32 rng(42);
    for (auto [m, k, n] : {std::array<std::size_t, 3>{3, 5, 7},
                           {1, 1, 1},
                           {17, 65, 9},
                           {32, 128, 30}}) {
        Matrix a = randomMatrix(m, k, rng);
        Matrix b = randomMatrix(k, n, rng);
        Matrix c;
        a.matmul(b, c);
        ASSERT_EQ(c.rows(), m);
        ASSERT_EQ(c.cols(), n);
        for (std::size_t i = 0; i < m; i++)
            for (std::size_t j = 0; j < n; j++) {
                float ref = 0.0f;
                for (std::size_t kk = 0; kk < k; kk++)
                    ref += a(i, kk) * b(kk, j);
                expectClose(c(i, j), ref, "matmul");
            }
    }
}

TEST(Matmul, TransposedAAccumulates)
{
    Pcg32 rng(44);
    const std::size_t batch = 19, rows = 7, cols = 11;
    Matrix a = randomMatrix(batch, rows, rng);
    Matrix b = randomMatrix(batch, cols, rng);
    Matrix c = randomMatrix(rows, cols, rng);
    Matrix ref = c;
    a.transposedMatmulAdd(b, c, 0.5f);
    for (std::size_t i = 0; i < rows; i++)
        for (std::size_t j = 0; j < cols; j++) {
            float acc = ref(i, j);
            for (std::size_t r = 0; r < batch; r++)
                acc += 0.5f * a(r, i) * b(r, j);
            expectClose(c(i, j), acc, "transposedMatmulAdd");
        }
}

/**
 * Scalar reference for Matrix::transposedMatmulAdd() in its documented
 * per-element order. n > 8: the initial output value, then one add per
 * r-group of four, (a0*b0 + a1*b1) + (a2*b2 + a3*b3) with
 * a_i = A[r+i, c] * scale, then one add per leftover row. n <= 8: a
 * zero-seeded sum over ascending r of (A[r, c] * scale) * B[r, j],
 * added once.
 */
void
refTransposedMatmulAdd(const Matrix &a, const Matrix &b, Matrix &out,
                       float scale)
{
    const std::size_t m = a.rows(), n = b.cols();
    for (std::size_t c = 0; c < a.cols(); c++)
        for (std::size_t j = 0; j < n; j++) {
            if (n <= 8) {
                float acc = 0.0f;
                for (std::size_t r = 0; r < m; r++)
                    acc += (a(r, c) * scale) * b(r, j);
                out(c, j) += acc;
                continue;
            }
            float o = out(c, j);
            std::size_t r = 0;
            for (; r + 4 <= m; r += 4) {
                const float a0 = a(r, c) * scale;
                const float a1 = a(r + 1, c) * scale;
                const float a2 = a(r + 2, c) * scale;
                const float a3 = a(r + 3, c) * scale;
                o += (a0 * b(r, j) + a1 * b(r + 1, j)) +
                     (a2 * b(r + 2, j) + a3 * b(r + 3, j));
            }
            for (; r < m; r++)
                o += (a(r, c) * scale) * b(r, j);
            out(c, j) = o;
        }
}

/** Random matrix salted with the special values the kernels must carry
 *  through unchanged: NaN, +-Inf, -0.0 and exact zeros. */
Matrix
specialMatrix(std::size_t rows, std::size_t cols, Pcg32 &rng)
{
    // All NaNs share the platform's default-NaN bits, so the comparison
    // pins operation order, not which operand's NaN payload survives.
    volatile float zero = 0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = inf * zero;
    Matrix m = randomMatrix(rows, cols, rng);
    for (std::size_t i = 0; i < m.size(); i++) {
        switch (rng.nextBounded(40)) {
          case 0: m.data()[i] = nan; break;
          case 1: m.data()[i] = inf; break;
          case 2: m.data()[i] = -inf; break;
          case 3: m.data()[i] = -0.0f; break;
          case 4: m.data()[i] = 0.0f; break;
          default: break;
        }
    }
    return m;
}

TEST(Matmul, TransposedAMatchesDocumentedOrderBitForBit)
{
    // Every tile path: narrow (n <= 8, including the gathered c-tail
    // when cols < 8 and the overlapped one otherwise), wide with exact
    // and overlapping j-tails, one and several tiles of j-vectors, odd
    // output-row counts, and batches below, at and past one r-group.
    Pcg32 rng(45);
    for (const std::size_t n : {1, 2, 6, 8, 15, 16, 17, 20, 30, 31, 33, 102})
        for (const std::size_t m : {1, 3, 4, 5, 97, 128})
            for (const std::size_t cols :
                 {1, 3, 8, 15, 16, 17, 20, 30, 102}) {
                Matrix a = specialMatrix(m, cols, rng);
                // C51's delta is zero for every untaken action's atoms:
                // whole zero columns of A.
                for (std::size_t c = 1; c < cols; c += 3)
                    for (std::size_t r = 0; r < m; r++)
                        a(r, c) = 0.0f;
                const Matrix b = specialMatrix(m, n, rng);
                Matrix got = specialMatrix(cols, n, rng);
                Matrix want = got;
                a.transposedMatmulAdd(b, got, 0.375f);
                refTransposedMatmulAdd(a, b, want, 0.375f);
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "m=" << m << " cols=" << cols << " n=" << n;
            }
}

/**
 * Scalar reference for Matrix::matmulAdd() in its documented
 * per-element order. n <= 4: the initial output value plus
 * A[i, k] * B[k, j] over ascending k. n >= 5: the initial value, then
 * one add per k-group of eight (a zero-seeded sequential partial sum),
 * one add per k-group of four, (a0*b0 + a1*b1) + (a2*b2 + a3*b3), then
 * (a0*b0 + a1*b1) + a2*b2 for two or three leftover steps (a2 = 0 and
 * b2 = b1 when only two are left) or a*b for one.
 */
void
refMatmulAdd(const Matrix &a, const Matrix &b, Matrix &out)
{
    const std::size_t k = a.cols(), n = b.cols();
    for (std::size_t i = 0; i < a.rows(); i++)
        for (std::size_t j = 0; j < n; j++) {
            float o = out(i, j);
            std::size_t kk = 0;
            if (n <= 4) {
                for (; kk < k; kk++)
                    o += a(i, kk) * b(kk, j);
                out(i, j) = o;
                continue;
            }
            for (; kk + 8 <= k; kk += 8) {
                float s = 0.0f;
                for (std::size_t u = 0; u < 8; u++)
                    s += a(i, kk + u) * b(kk + u, j);
                o += s;
            }
            for (; kk + 4 <= k; kk += 4)
                o += (a(i, kk) * b(kk, j) + a(i, kk + 1) * b(kk + 1, j)) +
                     (a(i, kk + 2) * b(kk + 2, j) +
                      a(i, kk + 3) * b(kk + 3, j));
            if (kk + 2 <= k) {
                const bool three = kk + 3 <= k;
                const float a2 = three ? a(i, kk + 2) : 0.0f;
                const float b2 = b(three ? kk + 2 : kk + 1, j);
                o += (a(i, kk) * b(kk, j) + a(i, kk + 1) * b(kk + 1, j)) +
                     a2 * b2;
            } else if (kk < k) {
                o += a(i, kk) * b(kk, j);
            }
            out(i, j) = o;
        }
}

TEST(Matmul, AddMatchesDocumentedOrderBitForBit)
{
    // Both regimes (sequential n <= 4, grouped n >= 5), widths below,
    // at and past one vector of every lane count with exact and
    // overlapping j-tails, every k-leftover combination (including the
    // 0.0f * b1 term of a two-step tail, which turns an infinite b1
    // into NaN), and row counts below, at and past one row tile.
    Pcg32 rng(46);
    for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 30,
                                31, 33, 102})
        for (const std::size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 20,
                                    30, 102})
            for (const std::size_t m : {1, 2, 3, 4, 5, 7, 97, 128}) {
                const Matrix a = specialMatrix(m, k, rng);
                const Matrix b = specialMatrix(k, n, rng);
                Matrix got = specialMatrix(m, n, rng);
                Matrix want = got;
                a.matmulAdd(b, got);
                refMatmulAdd(a, b, want);
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "m=" << m << " k=" << k << " n=" << n;
            }
}

/**
 * Scalar reference for one dense row in the documented single-row
 * order: a zero-seeded sum of x[k] * W[j, k] over ascending k, then
 * + bias[j], then the activation applied to that one element.
 */
void
refDenseRow(const DenseLayer &layer, const float *x, float *out)
{
    const Matrix &w = layer.weights();
    for (std::size_t j = 0; j < layer.outSize(); j++) {
        float s = 0.0f;
        for (std::size_t kk = 0; kk < layer.inSize(); kk++)
            s += x[kk] * w(j, kk);
        s += layer.bias()[j];
        activate(layer.activation(), &s, &out[j], 1);
    }
}

TEST(InferRow, MatchesDocumentedOrderBitForBit)
{
    // Output widths below, at and past one vector of every lane count
    // (scalar n <= 3, 4- and 8-lane rows, native tiles with exact and
    // overlapping tails, more vectors than one tile holds — at 16 lanes
    // too, up to the 153- and 204-wide C51 heads of the tri- and
    // quad-hybrid configs, with tails across a tile boundary), fan-ins
    // around every unroll boundary, and every activation, with NaN,
    // +-Inf, -0.0 and zeros in the weights, biases and inputs.
    Pcg32 rng(47);
    for (const Activation act :
         {Activation::Identity, Activation::ReLU, Activation::Sigmoid,
          Activation::Tanh, Activation::Swish})
        for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20,
                                    30, 31, 33, 102, 103, 129, 144, 145,
                                    153, 204})
            for (const std::size_t k : {1, 2, 3, 6, 7, 8, 9, 20, 30, 33}) {
                Network net(k, {{n, act}}, rng);
                DenseLayer &layer = net.layers()[0];
                layer.weights() = specialMatrix(n, k, rng);
                const Matrix b = specialMatrix(1, n, rng);
                std::copy(b.data(), b.data() + n, layer.bias().begin());
                const Matrix x = specialMatrix(1, k, rng);
                const Vector xv(x.data(), x.data() + k);

                Vector want(n);
                refDenseRow(layer, x.data(), want.data());
                const float *row = net.inferRow(xv);
                ASSERT_EQ(std::memcmp(row, want.data(), n * sizeof(float)),
                          0)
                    << "inferRow act=" << activationName(act)
                    << " n=" << n << " k=" << k;
                const Vector &fwd = net.forward(xv);
                ASSERT_EQ(fwd.size(), n);
                ASSERT_EQ(
                    std::memcmp(fwd.data(), want.data(), n * sizeof(float)),
                    0)
                    << "forward act=" << activationName(act) << " n=" << n
                    << " k=" << k;
            }
}

// ---------------------------------------------------------------------
// Batched layer forward/backward vs. the per-sample path, for every
// activation kind.
// ---------------------------------------------------------------------

class BatchedLayerTest : public ::testing::TestWithParam<Activation>
{
};

TEST_P(BatchedLayerTest, ForwardMatchesPerSample)
{
    Pcg32 rng(7);
    DenseLayer batched(9, 13, GetParam());
    batched.initWeights(rng);
    DenseLayer scalar(9, 13, GetParam());
    scalar.weights() = batched.weights();
    scalar.bias() = batched.bias();

    const std::size_t batch = 6;
    Pcg32 data(99);
    Matrix in = randomMatrix(batch, 9, data);
    Matrix out;
    batched.forward(in, out);
    ASSERT_EQ(out.rows(), batch);
    ASSERT_EQ(out.cols(), 13u);

    Vector x(9), y;
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 9);
        scalar.forward(x, y);
        for (std::size_t c = 0; c < 13; c++)
            expectClose(out(r, c), y[c], activationName(GetParam()));
    }
}

TEST_P(BatchedLayerTest, BackwardMatchesPerSampleAccumulation)
{
    Pcg32 rng(8);
    DenseLayer batched(5, 8, GetParam());
    batched.initWeights(rng);
    DenseLayer scalar(5, 8, GetParam());
    scalar.weights() = batched.weights();
    scalar.bias() = batched.bias();

    const std::size_t batch = 7;
    Pcg32 data(123);
    Matrix in = randomMatrix(batch, 5, data);
    Matrix gradOut = randomMatrix(batch, 8, data);

    Matrix out, gradIn;
    batched.forward(in, out);
    batched.backward(gradOut, gradIn);
    ASSERT_EQ(gradIn.rows(), batch);
    ASSERT_EQ(gradIn.cols(), 5u);

    Vector x(5), y, g(8), gi;
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 5);
        g.assign(gradOut.row(r), gradOut.row(r) + 8);
        scalar.forward(x, y);
        scalar.backward(g, gi);
        for (std::size_t c = 0; c < 5; c++)
            expectClose(gradIn(r, c), gi[c], "gradIn");
    }
    // Parameter gradients: batched accumulation == sum over samples.
    for (std::size_t i = 0; i < batched.gradWeights().size(); i++)
        expectClose(batched.gradWeights().data()[i],
                    scalar.gradWeights().data()[i], "gradW");
    for (std::size_t i = 0; i < 8; i++)
        expectClose(batched.gradBias()[i], scalar.gradBias()[i], "gradB");
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, BatchedLayerTest,
    ::testing::Values(Activation::Identity, Activation::ReLU,
                      Activation::Sigmoid, Activation::Tanh,
                      Activation::Swish),
    [](const auto &info) { return activationName(info.param); });

// ---------------------------------------------------------------------
// Lane-major output layer (the C51 training net's last layer): only
// the taken actions' slices forward, and a backward whose input
// gradient skips the reduction groups outside them.
// ---------------------------------------------------------------------

/** (row, segment) pairs in lane groups as the C51 head plans them: by
 *  segment, then ascending row, kSoftmaxLanes to a group, a group's
 *  spare lanes repeating its first row. */
LaneGroups
laneGroups(std::size_t width, std::uint32_t segments,
           const std::vector<std::pair<std::uint32_t, std::uint32_t>> &pairs)
{
    LaneGroups g;
    g.width = width;
    for (std::uint32_t s = 0; s < segments; s++) {
        std::vector<std::uint32_t> rows;
        for (const auto &[r, seg] : pairs)
            if (seg == s)
                rows.push_back(r);
        std::sort(rows.begin(), rows.end());
        for (const std::uint32_t r : rows) {
            if (g.rows.size() % kSoftmaxLanes == 0)
                g.seg.push_back(s);
            g.rows.push_back(r);
        }
        while (g.rows.size() % kSoftmaxLanes)
            g.rows.push_back(g.rows[g.rows.size() / kSoftmaxLanes *
                                    kSoftmaxLanes]);
    }
    return g;
}

/**
 * DenseLayer::forwardLanes() and the backward() after it, on a k ->
 * segments x width identity layer over @p rows input rows, against the
 * full-width scalar references in their documented orders: every lane
 * of the forward against bias + H W^T (refMatmulAdd), and gradW, gradB
 * and gradIn against refTransposedMatmulAdd, ascending column sums and
 * refMatmulAdd, from a gradOut that is random on the pairs' slices and
 * zero elsewhere. @p poison may then write non-finite values into H
 * and W, which the references carry at full width.
 */
void
expectLaneLayerMatchesReference(
    std::uint32_t segments, std::size_t width, std::size_t k,
    std::size_t rows,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &pairs,
    std::uint64_t seed,
    const std::function<void(Matrix &h, Matrix &w)> &poison = {})
{
    SCOPED_TRACE(testing::Message() << segments << " x " << width
                                    << " outputs, k " << k << ", " << rows
                                    << " rows, seed " << seed);
    constexpr std::size_t L = kSoftmaxLanes;
    const std::size_t n = segments * width;
    Pcg32 rng(seed);
    DenseLayer layer(k, n, Activation::Identity);
    layer.initWeights(rng);
    for (auto &b : layer.bias())
        b = static_cast<float>(rng.nextDouble(-0.5, 0.5));
    layer.bias()[1] = -0.0f;
    Matrix h = randomMatrix(rows, k, rng);
    if (poison)
        poison(h, layer.weights());
    const Matrix &w = layer.weights();
    const LaneGroups g = laneGroups(width, segments, pairs);

    // Forward: lane l of group grp, column i, against row
    // rows[grp * L + l]'s full-width output seg * width + i.
    std::vector<float> lanes(g.rows.size() * width, -1.0f);
    layer.forwardLanes(h, g, lanes.data());
    Matrix wt(k, n), want(rows, n);
    for (std::size_t j = 0; j < n; j++)
        for (std::size_t kk = 0; kk < k; kk++)
            wt(kk, j) = w(j, kk);
    for (std::size_t r = 0; r < rows; r++)
        std::copy(layer.bias().begin(), layer.bias().end(), want.row(r));
    refMatmulAdd(h, wt, want);
    for (std::size_t grp = 0; grp < g.size(); grp++)
        for (std::size_t l = 0; l < L; l++)
            for (std::size_t i = 0; i < width; i++) {
                const float got = lanes[(grp * width + i) * L + l];
                const float ref =
                    want(g.rows[grp * L + l], g.seg[grp] * width + i);
                ASSERT_EQ(std::memcmp(&got, &ref, sizeof got), 0)
                    << "forward group " << grp << " lane " << l
                    << " column " << i;
            }

    // Backward.
    Matrix gradOut(rows, n, 0.0f);
    for (const auto &[r, s] : pairs)
        for (std::size_t i = 0; i < width; i++)
            gradOut(r, s * width + i) =
                static_cast<float>(rng.nextDouble(-1.0, 1.0));
    Matrix gradIn;
    layer.backward(gradOut, gradIn, true);
    Matrix wantW(n, k, 0.0f), wantIn(rows, k, 0.0f);
    refTransposedMatmulAdd(gradOut, h, wantW, 1.0f);
    refMatmulAdd(gradOut, w, wantIn);
    Vector wantB(n, 0.0f);
    for (std::size_t r = 0; r < rows; r++)
        for (std::size_t c = 0; c < n; c++)
            wantB[c] += gradOut(r, c);
    EXPECT_EQ(std::memcmp(layer.gradWeights().data(), wantW.data(),
                          wantW.size() * sizeof(float)),
              0)
        << "gradW";
    EXPECT_EQ(std::memcmp(layer.gradBias().data(), wantB.data(),
                          wantB.size() * sizeof(float)),
              0)
        << "gradB";
    ASSERT_EQ(gradIn.rows(), rows);
    EXPECT_EQ(std::memcmp(gradIn.data(), wantIn.data(),
                          wantIn.size() * sizeof(float)),
              0)
        << "gradIn";
}

/** The pairs of the pinned batch: rows 0-3 form a group of four that
 *  holds only segment 1; row 5 is a folded row holding both segments;
 *  the other rows take one segment each, so neither segment's pair
 *  count is a multiple of the lane width. */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
pinnedPairs(std::size_t rows, std::uint32_t segments)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t r = 0; r < rows; r++) {
        if (r < 4)
            pairs.push_back({r, 1});
        else if (r == 5)
            for (std::uint32_t s = 0; s < segments; s++)
                pairs.push_back({r, s});
        else
            pairs.push_back({r, (r * 7 + r / 3) % segments});
    }
    return pairs;
}

TEST(LaneLayer, MatchesFullWidthDocumentedOrderBitForBit)
{
    // C51's layer (2 x 51 atoms over 30 inputs), with 23 rows: a
    // leftover of three rows after the r-groups of four.
    expectLaneLayerMatchesReference(2, 51, 30, 23, pinnedPairs(23, 2), 61);
    // Segments off the k-groups of eight, three of them, and a width
    // below one column tile.
    expectLaneLayerMatchesReference(3, 13, 30, 37, pinnedPairs(37, 3), 62);
    expectLaneLayerMatchesReference(2, 5, 30, 19, pinnedPairs(19, 2), 63);
    // Four outputs: the forward's one-add-per-step order.
    expectLaneLayerMatchesReference(2, 2, 30, 10, pinnedPairs(10, 2), 64);
    // Fan-ins where the weight gradient's narrow kernel (k <= 8) and the
    // input gradient's every leftover form run.
    for (const std::size_t k : {5, 6, 7, 9, 12})
        expectLaneLayerMatchesReference(2, 51, k, 21, pinnedPairs(21, 2),
                                        65 + k);
    // A full default batch over four actions, with random pairs.
    Pcg32 rng(66);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t r = 0; r < 128; r++) {
        const std::uint32_t s = rng.nextBounded(4);
        pairs.push_back({r, s});
        if (rng.nextBounded(16) == 0)
            pairs.push_back({r, (s + 1 + rng.nextBounded(3)) % 4});
    }
    expectLaneLayerMatchesReference(4, 51, 30, 128, pairs, 67);
}

TEST(LaneLayer, NonFiniteInputsAndWeightsGiveFullWidthBits)
{
    // A zero gradient times Inf or NaN is NaN, so a skipped reduction
    // group would lose it: with such an input or weight, the backward
    // must give the full-width bits (the weight gradient runs full
    // width; the input gradient falls back to it). Each case carries one kind of
    // non-finite value, so every NaN in it has one payload.
    volatile float zero = 0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nanA = std::bit_cast<float>(0x7fc5a5a5u);
    const float nanB = std::bit_cast<float>(0xffe12345u);
    const auto pairs = pinnedPairs(23, 2);
    // Row 2 lies in the group of four that holds only action 1, so the
    // full width adds 0 * H(2, 5) into action 0's weight gradient;
    // output row 60 is action 1's, so action 0's rows get 0 * W(60, 3)
    // in their input gradient (and row 10, action 0's, the reverse).
    const std::vector<std::function<void(Matrix &, Matrix &)>> poisons = {
        [&](Matrix &h, Matrix &) { h(2, 5) = inf; },
        [&](Matrix &h, Matrix &) { h(2, 5) = -inf; },
        [&](Matrix &h, Matrix &) { h(2, 5) = nanA; },
        [&](Matrix &h, Matrix &) { h(17, 29) = nanB; },
        [&](Matrix &, Matrix &w) { w(60, 3) = -inf; },
        [&](Matrix &, Matrix &w) { w(10, 8) = inf; },
        [&](Matrix &, Matrix &w) { w(60, 3) = nanB; },
        [&](Matrix &, Matrix &w) { w(10, 29) = nanA; },
        [&](Matrix &, Matrix &w) { w(3, 0) = inf * zero; },
    };
    for (std::size_t c = 0; c < poisons.size(); c++) {
        SCOPED_TRACE(testing::Message() << "poison " << c);
        expectLaneLayerMatchesReference(2, 51, 30, 23, pairs, 70 + c,
                                        poisons[c]);
    }
}

// ---------------------------------------------------------------------
// Whole-network equivalence.
// ---------------------------------------------------------------------

TEST(BatchedNetwork, ForwardBackwardMatchPerSample)
{
    Pcg32 rngA(11);
    Network batched(6,
                    {{20, Activation::Swish},
                     {30, Activation::Swish},
                     {4, Activation::Identity}},
                    rngA);
    Pcg32 rngB(12);
    Network scalar(6,
                   {{20, Activation::Swish},
                    {30, Activation::Swish},
                    {4, Activation::Identity}},
                   rngB);
    scalar.copyWeightsFrom(batched);

    const std::size_t batch = 16;
    Pcg32 data(3);
    Matrix in = randomMatrix(batch, 6, data);
    Matrix gradOut = randomMatrix(batch, 4, data);

    const Matrix &out = batched.forward(in);
    batched.backward(gradOut);

    Vector x(6), g(4);
    for (std::size_t r = 0; r < batch; r++) {
        x.assign(in.row(r), in.row(r) + 6);
        g.assign(gradOut.row(r), gradOut.row(r) + 4);
        const Vector &y = scalar.forward(x);
        for (std::size_t c = 0; c < 4; c++)
            expectClose(out(r, c), y[c], "net forward");
        scalar.backward(g);
    }
    for (std::size_t li = 0; li < batched.layers().size(); li++) {
        const Matrix &gb = batched.layers()[li].gradWeights();
        const Matrix &gs = scalar.layers()[li].gradWeights();
        for (std::size_t i = 0; i < gb.size(); i++)
            expectClose(gb.data()[i], gs.data()[i], "net gradW");
    }
}

TEST(BatchedNetwork, BatchOfOneMatchesVectorPath)
{
    Pcg32 rng(21);
    Network net(4, {{8, Activation::Swish}, {3, Activation::Identity}},
                rng);
    Pcg32 data(5);
    Matrix in = randomMatrix(1, 4, data);
    const Matrix &outM = net.forward(in);
    Vector x(in.data(), in.data() + 4);
    const Vector &outV = net.forward(x);
    for (std::size_t c = 0; c < 3; c++)
        expectClose(outM(0, c), outV[c], "batch-of-one");
}

} // namespace
} // namespace sibyl::ml

// ---------------------------------------------------------------------
// Agent-level equivalence: a full training round through the batched
// engine must match the legacy per-sample loop on identically seeded
// twin agents (same sampled indices, same math up to summation order).
// ---------------------------------------------------------------------

namespace sibyl::rl
{
namespace
{

void
fillBuffer(Agent &agent, const AgentConfig &cfg, std::uint64_t seed)
{
    Pcg32 data(seed);
    for (std::size_t i = 0; i < cfg.bufferCapacity; i++) {
        Experience e;
        e.state.resize(cfg.stateDim);
        e.nextState.resize(cfg.stateDim);
        for (auto &v : e.state)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        for (auto &v : e.nextState)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        e.action = data.nextBounded(cfg.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        agent.observe(e.state, e.action, e.reward, e.nextState);
    }
}

template <typename AgentT>
void
expectTwinTrainingMatches(AgentConfig cfg, double tol)
{
    // trainEvery larger than the fill so observe() never trains; the
    // round under test is the explicit trainRound() below.
    cfg.trainEvery = 10 * cfg.bufferCapacity;
    cfg.targetSyncEvery = 10 * cfg.bufferCapacity;

    AgentT batched(cfg);
    AgentT scalar(cfg);
    fillBuffer(batched, cfg, 77);
    fillBuffer(scalar, cfg, 77);

    const double lossB = batched.trainRound();
    const double lossS = scalar.trainRoundPerSample();
    EXPECT_NEAR(lossB, lossS, tol * std::max(1.0, std::abs(lossS)));

    const auto pb = batched.trainingNetwork().saveParams();
    const auto ps = scalar.trainingNetwork().saveParams();
    ASSERT_EQ(pb.size(), ps.size());
    double maxDiff = 0.0;
    for (std::size_t i = 0; i < pb.size(); i++)
        maxDiff = std::max(maxDiff,
                           static_cast<double>(std::abs(pb[i] - ps[i])));
    EXPECT_LT(maxDiff, tol);
}

TEST(BatchedAgent, DqnMatchesPerSample)
{
    AgentConfig cfg;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, DoubleDqnMatchesPerSample)
{
    AgentConfig cfg;
    cfg.doubleDqn = true;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, DqnPrioritizedMatchesPerSample)
{
    AgentConfig cfg;
    cfg.prioritizedReplay = true;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 128;
    expectTwinTrainingMatches<DqnAgent>(cfg, 1e-4);
}

TEST(BatchedAgent, C51MatchesPerSample)
{
    AgentConfig cfg;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 64;
    expectTwinTrainingMatches<C51Agent>(cfg, 1e-4);
}

TEST(BatchedAgent, C51PrioritizedMatchesPerSample)
{
    AgentConfig cfg;
    cfg.prioritizedReplay = true;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.bufferCapacity = 64;
    expectTwinTrainingMatches<C51Agent>(cfg, 1e-4);
}

// ---------------------------------------------------------------------
// Single-row inference contracts, for every activation, at odd widths
// and batch sizes that exercise every k-tail and row-tail:
//  (1) inferRow is BIT-identical (EXPECT_EQ on floats, no tolerance)
//      to the legacy per-sample forward — so routing selectAction
//      through it changes no decision, and the golden trajectories
//      pinned to the per-sample order stay put;
//  (2) every row of a batched infer is BIT-identical to the same row
//      inferred in any other batch (composition independence) — the
//      property the agents' Bellman-target caches rely on;
//  (3) inferRow agrees with the batched rows to float tolerance (the
//      batched kernels sum in a k-grouped order).
// ---------------------------------------------------------------------

class InferRowTest : public ::testing::TestWithParam<ml::Activation>
{
};

TEST_P(InferRowTest, RowContracts)
{
    const ml::Activation act = GetParam();
    Pcg32 rng(0x10F3);
    // Input widths cover the wide kernel's k8/k4/2-3/1 leftovers and
    // the narrow head path; layer widths cover n<=4 and wide j-tails.
    const std::size_t inputSizes[] = {3, 6, 9, 21, 23, 30, 33};
    for (std::size_t inSize : inputSizes) {
        ml::Network net(
            inSize,
            {{13, act}, {30, act}, {2, ml::Activation::Identity}}, rng);
        for (std::size_t batch : {1, 2, 3, 5, 8, 17}) {
            ml::Matrix in(batch, inSize);
            for (std::size_t i = 0; i < in.size(); i++)
                in.data()[i] =
                    static_cast<float>(rng.nextDouble(-2.0, 2.0));

            const ml::Matrix out = net.infer(in); // copy: rows compared
            for (std::size_t r = 0; r < batch; r++) {
                ml::Vector x(in.row(r), in.row(r) + inSize);

                // (2) composition independence: the same row through
                // a single-row batch.
                ml::Matrix single(1, inSize);
                std::copy(x.begin(), x.end(), single.row(0));
                const ml::Matrix &alone = net.infer(single);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    ASSERT_EQ(alone(0, j), out(r, j))
                        << "batched row depends on batch composition: "
                        << "row " << r << " col " << j << " in="
                        << inSize << " batch=" << batch;
                }

                // (1) inferRow == forward(Vector), bit for bit; and
                // (3) both within tolerance of the batched row.
                const float *rowOut = net.inferRow(x);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    const float a = rowOut[j], b = out(r, j);
                    const float tol = 1e-5f *
                        std::max({1.0f, std::abs(a), std::abs(b)});
                    ASSERT_NEAR(a, b, tol) << "row vs batched col " << j;
                }
                // inferRow clobbers its workspace on the next call;
                // compare against forward via copies.
                ml::Vector rowCopy(rowOut, rowOut + net.outputSize());
                const ml::Vector &fwd = net.forward(x);
                for (std::size_t j = 0; j < net.outputSize(); j++) {
                    ASSERT_EQ(rowCopy[j], fwd[j])
                        << "inferRow vs forward(Vector) col " << j;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, InferRowTest,
                         ::testing::Values(ml::Activation::Identity,
                                           ml::Activation::ReLU,
                                           ml::Activation::Sigmoid,
                                           ml::Activation::Tanh,
                                           ml::Activation::Swish));

TEST(InferRow, DoesNotDisturbPendingBackwardState)
{
    Pcg32 rng(0x5EED);
    ml::Network a(6, {{20, ml::Activation::Swish},
                      {2, ml::Activation::Identity}}, rng);
    Pcg32 rng2(0x5EED);
    ml::Network b(6, {{20, ml::Activation::Swish},
                      {2, ml::Activation::Identity}}, rng2);

    ml::Matrix in(4, 6);
    for (std::size_t i = 0; i < in.size(); i++)
        in.data()[i] = static_cast<float>(i) * 0.07f - 0.8f;
    ml::Matrix gradOut(4, 2, 0.3f);

    // a: forward, then an interleaved inferRow, then backward.
    a.forward(in);
    ml::Vector probe(6, 0.5f);
    a.inferRow(probe);
    a.backward(gradOut);

    // b: plain forward+backward. Gradients must match bit for bit.
    b.forward(in);
    b.backward(gradOut);
    for (std::size_t li = 0; li < a.layers().size(); li++) {
        const ml::Matrix &ga = a.layers()[li].gradWeights();
        const ml::Matrix &gb = b.layers()[li].gradWeights();
        for (std::size_t i = 0; i < ga.size(); i++)
            ASSERT_EQ(ga.data()[i], gb.data()[i]);
    }
}

// ---------------------------------------------------------------------
// Twin-agent decision equivalence: selectAction routes through
// inferRow, and its decisions must be identical to the reference
// computed from the legacy forward(Vector) output of the same frozen
// inference network — proved on trained (non-trivial) weights.
// ---------------------------------------------------------------------

TEST(RowDecisions, DqnSelectActionUnchanged)
{
    AgentConfig cfg;
    cfg.bufferCapacity = 200;
    cfg.batchSize = 32;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 50;
    cfg.targetSyncEvery = 100;
    cfg.exploration.epsilon = 0.0; // deterministic: decisions are pure argmax
    DqnAgent agent(cfg);
    fillBuffer(agent, cfg, 400); // trains + syncs along the way

    Pcg32 rng(0xAB1E);
    for (int i = 0; i < 300; i++) {
        ml::Vector s(cfg.stateDim);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble(0.0, 1.0));
        const ml::Vector &q = agent.inferenceNetwork().forward(s);
        const auto ref = static_cast<std::uint32_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
        ASSERT_EQ(agent.selectAction(s), ref);
        ASSERT_EQ(agent.greedyAction(s), ref);
    }
}

TEST(RowDecisions, C51SelectActionUnchanged)
{
    AgentConfig cfg;
    cfg.bufferCapacity = 100;
    cfg.batchSize = 16;
    cfg.batchesPerTraining = 2;
    cfg.trainEvery = 50;
    cfg.targetSyncEvery = 100;
    cfg.exploration.epsilon = 0.0;
    C51Agent agent(cfg);
    fillBuffer(agent, cfg, 200);

    Pcg32 rng(0xAB1F);
    for (int i = 0; i < 200; i++) {
        ml::Vector s(cfg.stateDim);
        for (auto &v : s)
            v = static_cast<float>(rng.nextDouble(0.0, 1.0));
        // Reference: the legacy path — full forward, per-action
        // softmax + expectation, first-max argmax.
        const ml::Vector &out = agent.inferenceNetwork().forward(s);
        std::vector<double> q(cfg.numActions);
        for (std::uint32_t a = 0; a < cfg.numActions; a++) {
            ml::Vector dist(out.begin() + a * cfg.atoms,
                            out.begin() + (a + 1) * cfg.atoms);
            ml::softmax(dist);
            q[a] = agent.support().expectation(dist);
        }
        const auto ref = static_cast<std::uint32_t>(
            std::max_element(q.begin(), q.end()) - q.begin());
        ASSERT_EQ(agent.selectAction(s), ref);
        ASSERT_EQ(agent.greedyAction(s), ref);
    }
}

// ---------------------------------------------------------------------
// Training-path A/B: the Bellman-target cache must be a pure
// memoization (bit-identical parameters with it on or off), and
// duplicate-state folding must stay within summation-order tolerance.
// ---------------------------------------------------------------------

template <typename AgentT>
void
expectCacheIsPureMemoization()
{
    AgentConfig on;
    on.bufferCapacity = 150;
    on.batchSize = 32;
    on.batchesPerTraining = 2;
    on.trainEvery = 40;
    on.targetSyncEvery = 90; // several syncs + invalidations
    AgentConfig off = on;
    on.cacheNextValues = true;
    off.cacheNextValues = false;

    AgentT a(on);
    AgentT b(off);
    // Identical observation streams drive identical training rounds
    // (same seeds -> same sampling); duplicated adds also exercise
    // the ring-overwrite invalidation path.
    Pcg32 data(0xCAFE);
    for (int i = 0; i < 600; i++) {
        Experience e;
        e.state.resize(on.stateDim);
        e.nextState.resize(on.stateDim);
        for (auto &v : e.state)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        for (auto &v : e.nextState)
            v = static_cast<float>(data.nextDouble(0.0, 1.0));
        e.action = data.nextBounded(on.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        a.observe(e.state, e.action, e.reward, e.nextState);
        b.observe(e.state, e.action, e.reward, e.nextState);
    }
    EXPECT_GT(a.stats().trainingRounds, 0u);
    EXPECT_GT(a.stats().weightSyncs, 0u);

    const auto pa = a.trainingNetwork().saveParams();
    const auto pb = b.trainingNetwork().saveParams();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); i++)
        ASSERT_EQ(pa[i], pb[i]) << "param " << i
                                << ": target cache changed training";
}

TEST(TargetCache, DqnBitIdenticalOnOff)
{
    expectCacheIsPureMemoization<DqnAgent>();
}

TEST(TargetCache, C51BitIdenticalOnOff)
{
    expectCacheIsPureMemoization<C51Agent>();
}

template <typename AgentT>
void
expectFoldWithinTolerance()
{
    AgentConfig on;
    on.bufferCapacity = 100;
    on.batchSize = 64; // heavy duplication via the quantizer below
    on.batchesPerTraining = 2;
    on.trainEvery = 10 * on.bufferCapacity;
    on.targetSyncEvery = 10 * on.bufferCapacity;
    AgentConfig off = on;
    on.foldDuplicateStates = true;
    off.foldDuplicateStates = false;

    AgentT a(on);
    AgentT b(off);
    Pcg32 data(0xF01D);
    for (std::size_t i = 0; i < on.bufferCapacity; i++) {
        Experience e;
        e.state.resize(on.stateDim);
        e.nextState.resize(on.stateDim);
        // Coarse quantization: plenty of byte-identical states.
        for (auto &v : e.state)
            v = static_cast<float>(data.nextBounded(4)) * 0.25f;
        for (auto &v : e.nextState)
            v = static_cast<float>(data.nextBounded(4)) * 0.25f;
        e.action = data.nextBounded(on.numActions);
        e.reward = static_cast<float>(data.nextDouble(0.0, 2.0));
        a.observe(e.state, e.action, e.reward, e.nextState);
        b.observe(e.state, e.action, e.reward, e.nextState);
    }
    a.trainRound();
    b.trainRound();

    const auto pa = a.trainingNetwork().saveParams();
    const auto pb = b.trainingNetwork().saveParams();
    ASSERT_EQ(pa.size(), pb.size());
    double maxDiff = 0.0;
    for (std::size_t i = 0; i < pa.size(); i++)
        maxDiff = std::max(maxDiff,
                           static_cast<double>(std::abs(pa[i] - pb[i])));
    EXPECT_LT(maxDiff, 1e-5) << "folded gradients drifted beyond "
                                "summation-order tolerance";
}

TEST(DuplicateFold, DqnWithinTolerance)
{
    expectFoldWithinTolerance<DqnAgent>();
}

TEST(DuplicateFold, C51WithinTolerance)
{
    expectFoldWithinTolerance<C51Agent>();
}

// ---------------------------------------------------------------------
// The C51 decision decode against the legacy per-action form, bit for
// bit: each action's own softmax and ascending-atom expectation, then
// the first maximum over the allowed actions from a -1e300 start.
// ---------------------------------------------------------------------

/** Each action's expectation, one action at a time. */
std::vector<double>
refC51Values(const AgentConfig &cfg, const float *row)
{
    const std::size_t atoms = cfg.atoms;
    const CategoricalSupport support(cfg.vmin, cfg.vmax, cfg.atoms);
    std::vector<double> q(cfg.numActions);
    for (std::uint32_t a = 0; a < cfg.numActions; a++) {
        ml::Vector dist(row + a * atoms, row + (a + 1) * atoms);
        ml::softmax(dist);
        q[a] = support.expectation(dist);
    }
    return q;
}

/** First maximum of @p q over the actions @p mask allows. */
std::uint32_t
refFirstMax(const std::vector<double> &q, std::uint32_t mask,
            bool restricted)
{
    std::uint32_t best =
        restricted ? static_cast<std::uint32_t>(std::countr_zero(mask)) : 0;
    double bestQ = -1e300;
    for (std::uint32_t a = 0; a < q.size(); a++) {
        if (restricted && !(mask >> a & 1u))
            continue;
        if (q[a] > bestQ) {
            bestQ = q[a];
            best = a;
        }
    }
    return best;
}

TEST(C51Decode, MatchesPerActionReferenceBitForBit)
{
    Pcg32 rng(93);
    volatile float zero = 0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = inf * zero; // the platform's default NaN
    for (const std::uint32_t numActions : {2u, 3u, 4u, 5u, 8u, 9u})
        for (const std::uint32_t atoms : {2u, 3u, 51u}) {
            AgentConfig cfg;
            cfg.numActions = numActions;
            cfg.atoms = atoms;
            C51Head head(cfg);
            const std::size_t width = head.outputWidth();
            const std::uint32_t full = (1u << numActions) - 1u;

            // Head level: greedy on rows salted with special logits and
            // exact cross-action ties, unrestricted and under masks.
            std::vector<float> row(width);
            for (int trial = 0; trial < 48; trial++) {
                for (auto &v : row)
                    v = static_cast<float>(rng.nextDouble(-4.0, 4.0));
                const std::uint32_t a = rng.nextBounded(numActions);
                const std::uint32_t b = (a + 1) % numActions;
                switch (trial % 8) {
                  case 1: row[rng.nextBounded(width)] = nan; break;
                  case 2: row[rng.nextBounded(width)] = inf; break;
                  case 3: row[rng.nextBounded(width)] = -inf; break;
                  case 4: // two actions tie exactly
                    std::copy_n(row.data() + a * atoms, atoms,
                                row.data() + b * atoms);
                    break;
                  case 5: // every action ties
                    for (std::uint32_t c = 1; c < numActions; c++)
                        std::copy_n(row.data(), atoms,
                                    row.data() + c * atoms);
                    break;
                  case 6: // one atom takes all of an action's mass
                    row[a * atoms + rng.nextBounded(atoms)] = 90.0f;
                    break;
                  case 7:
                    row[rng.nextBounded(width)] = -0.0f;
                    row[rng.nextBounded(width)] = 0.0f;
                    row[b * atoms] = nan; // a leading NaN sticks
                    break;
                  default: break;
                }
                const std::vector<double> q = refC51Values(cfg, row.data());
                ASSERT_EQ(head.greedy(row.data(), full, false),
                          refFirstMax(q, full, false))
                    << "A=" << numActions << " atoms=" << atoms
                    << " trial " << trial;
                // Every restricting mask for three actions; a few
                // random ones otherwise.
                for (std::uint32_t m = 1; m < full; m++) {
                    const std::uint32_t mask =
                        numActions == 3 ? m : (rng.nextU32() & full);
                    if (mask == 0 || mask == full)
                        continue;
                    ASSERT_EQ(head.greedy(row.data(), mask, true),
                              refFirstMax(q, mask, true))
                        << "A=" << numActions << " atoms=" << atoms
                        << " mask=" << mask << " trial " << trial;
                    if (m >= 6)
                        break;
                }
            }

            // Agent level: qValues and greedyAction on inference rows
            // whose head layer carries special biases and a tie.
            C51Agent agent(cfg);
            ml::DenseLayer &headLayer =
                agent.inferenceNetwork().layers().back();
            if (numActions > 2)
                for (std::size_t i = 0; i < atoms; i++) {
                    for (std::size_t c = 0; c < headLayer.inSize(); c++)
                        headLayer.weights()(2 * atoms + i, c) =
                            headLayer.weights()(atoms + i, c);
                    headLayer.bias()[2 * atoms + i] =
                        headLayer.bias()[atoms + i];
                }
            headLayer.bias()[rng.nextBounded(atoms)] = nan;
            if (numActions > 3)
                headLayer.bias()[3 * atoms + 1] = inf;
            if (numActions > 4)
                headLayer.bias()[4 * atoms] = -inf;
            for (int i = 0; i < 20; i++) {
                ml::Vector s(cfg.stateDim);
                for (auto &v : s)
                    v = static_cast<float>(rng.nextDouble(0.0, 1.0));
                const ml::Vector out = agent.inferenceNetwork().forward(s);
                const std::vector<double> want =
                    refC51Values(cfg, out.data());
                const std::vector<double> got = agent.qValues(s);
                ASSERT_EQ(got.size(), want.size());
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      want.size() * sizeof(double)),
                          0)
                    << "qValues A=" << numActions << " atoms=" << atoms;
                ASSERT_EQ(agent.greedyAction(s),
                          refFirstMax(want, full, false))
                    << "A=" << numActions << " atoms=" << atoms;
            }
        }
}

/** One next-state distribution @p p projected under (reward, gamma):
 *  each atom's mass scatter-added onto its two landing neighbours in
 *  ascending atom order, all NaN for a non-finite reward. */
void
refProject(const AgentConfig &cfg, const float *p, float reward, float *out)
{
    const std::size_t atoms = cfg.atoms;
    const double delta = (cfg.vmax - cfg.vmin) / (atoms - 1);
    if (!std::isfinite(static_cast<double>(reward))) {
        std::fill_n(out, atoms, std::numeric_limits<float>::quiet_NaN());
        return;
    }
    std::fill_n(out, atoms, 0.0f);
    for (std::uint32_t i = 0; i < atoms; i++) {
        const double pi = p[i];
        if (pi <= 0.0)
            continue;
        const double z = cfg.vmin + delta * static_cast<double>(i);
        const double tz = std::clamp(reward + cfg.gamma * z, cfg.vmin,
                                     cfg.vmax);
        const double b = (tz - cfg.vmin) / delta;
        auto lo = static_cast<std::uint32_t>(std::floor(b));
        auto hi = static_cast<std::uint32_t>(std::ceil(b));
        lo = std::min(lo, cfg.atoms - 1);
        hi = std::min(hi, cfg.atoms - 1);
        if (lo == hi) {
            out[lo] += static_cast<float>(pi);
        } else {
            out[lo] += static_cast<float>(pi * (hi - b));
            out[hi] += static_cast<float>(pi * (b - lo));
        }
    }
}

TEST(C51Decode, TargetAndGreedyAgreeBelowMinus1e30)
{
    // A finite support entirely below -1e30 (an accepted
    // Sibyl{vmin=-1e40,vmax=-1e35} scenario): every expectation lies
    // below -1e30, so a first-max that started there would never move
    // off action 0. The training target must pick the action the
    // decision picks.
    AgentConfig cfg;
    cfg.vmin = -1e40;
    cfg.vmax = -1e35;
    C51Head head(cfg);
    const std::size_t atoms = cfg.atoms;
    Pcg32 rng(94);
    std::vector<float> row(head.outputWidth());
    for (auto &v : row)
        v = static_cast<float>(rng.nextDouble(-2.0, 2.0));
    row[atoms + atoms - 1] = 40.0f; // action 1: mass on the top atom
    const std::uint32_t full = (1u << cfg.numActions) - 1u;
    const std::uint32_t greedy = head.greedy(row.data(), full, false);
    ASSERT_EQ(greedy, 1u);

    const float reward = 1.0f;
    std::vector<float> got(atoms), want(atoms);
    head.target(row.data(), nullptr, &reward, 1, got.data());
    ml::Vector dist(row.data() + greedy * atoms,
                    row.data() + (greedy + 1) * atoms);
    ml::softmax(dist);
    refProject(cfg, dist.data(), reward, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), atoms * sizeof(float)),
              0);
}

// ---------------------------------------------------------------------
// The minibatch C51 head against the scalar per-row formulas, bit for
// bit: rows across SIMD lanes, the vectorized projection geometry and
// the shared per-prediction softmax must not move a single bit.
// ---------------------------------------------------------------------

/** One transition's C51 Bellman target, row by row: softmax each
 *  action group, keep the first maximum of the expectations, project
 *  that distribution under (reward, gamma). */
void
refC51Target(const AgentConfig &cfg, const float *evalRow, float reward,
             float *out)
{
    const std::size_t atoms = cfg.atoms;
    const double delta = (cfg.vmax - cfg.vmin) / (atoms - 1);
    std::vector<float> d(evalRow, evalRow + cfg.numActions * atoms);
    std::uint32_t bestA = 0;
    double bestQ = -1e30;
    for (std::uint32_t a = 0; a < cfg.numActions; a++) {
        ml::softmax(d.data() + a * atoms, atoms);
        double q = 0.0;
        for (std::size_t i = 0; i < atoms; i++)
            q += static_cast<double>(d[a * atoms + i]) *
                 (cfg.vmin + delta * static_cast<double>(i));
        if (q > bestQ) {
            bestQ = q;
            bestA = a;
        }
    }
    refProject(cfg, d.data() + bestA * atoms, reward, out);
}

/** One row's C51 loss: cross-entropy of the taken action's softmax
 *  against the target, gradient times weight added into @p gradRow. */
double
refC51Loss(const AgentConfig &cfg, const float *outRow,
           std::uint32_t action, const float *target, float weight,
           float *gradRow, float &priority)
{
    const std::size_t atoms = cfg.atoms;
    const ml::Vector logits(outRow + action * atoms,
                            outRow + (action + 1) * atoms);
    const ml::Vector t(target, target + atoms);
    ml::Vector grad;
    const double loss = ml::softmaxCrossEntropy(logits, t, grad);
    priority = static_cast<float>(loss);
    for (std::size_t i = 0; i < atoms; i++)
        gradRow[action * atoms + i] += grad[i] * weight;
    return loss;
}

TEST(C51HeadBatch, TargetsMatchPerRowFormulasBitForBit)
{
    AgentConfig cfg;
    cfg.numActions = 3;
    C51Head head(cfg);
    const std::size_t width = head.outputWidth();
    const std::size_t atoms = cfg.atoms;
    // 21 rows: two full groups of SIMD lanes and a ragged tail.
    const std::size_t rows = 21;
    Pcg32 rng(91);
    volatile float zero = 0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = inf * zero; // the platform's default NaN
    std::vector<float> eval(rows * width), rewards(rows);
    for (auto &v : eval)
        v = static_cast<float>(rng.nextDouble(-4.0, 4.0));
    for (auto &r : rewards)
        r = static_cast<float>(rng.nextDouble(-3.0, 15.0)); // both clamps
    std::fill_n(eval.data() + 2 * width, width, nan);     // NaN row
    eval[5 * width + 7] = nan;                            // one NaN logit
    eval[6 * width + atoms + 3] = inf;                    // inf logit
    for (std::size_t i = 0; i < width; i++)               // underflow:
        eval[9 * width + i] = i % 17 ? -150.0f : 0.0f;    // p ~ 1e-65
    eval[11 * width + 4] = 80.0f; // one atom takes all the mass
    // An exact tie of expectations between actions 0 and 1 (same peak;
    // their saturated tails differ but add nothing to q): the first
    // maximum wins, and the tails show which one was projected.
    for (std::size_t i = 0; i < width; i++)
        eval[12 * width + i] = i < atoms ? -80.0f : -100.0f;
    eval[12 * width + 20] = 80.0f;
    eval[12 * width + atoms + 20] = 80.0f;
    eval[12 * width + 2 * atoms + 10] = 80.0f;
    rewards[4] = nan;
    rewards[13] = inf;
    rewards[17] = -inf;
    rewards[18] = 0.0f;
    rewards[19] = -0.0f;

    std::vector<float> got(rows * atoms, -1.0f), want(rows * atoms);
    head.target(eval.data(), nullptr, rewards.data(), rows, got.data());
    for (std::size_t r = 0; r < rows; r++)
        refC51Target(cfg, eval.data() + r * width, rewards[r],
                     want.data() + r * atoms);
    for (std::size_t r = 0; r < rows; r++)
        EXPECT_EQ(std::memcmp(got.data() + r * atoms,
                              want.data() + r * atoms,
                              atoms * sizeof(float)),
                  0)
            << "row " << r;

    // A batch of one gives each row the same bits as inside a batch.
    std::vector<float> one(atoms);
    for (std::size_t r = 0; r < rows; r++) {
        head.target(eval.data() + r * width, nullptr, &rewards[r], 1,
                    one.data());
        EXPECT_EQ(std::memcmp(one.data(), got.data() + r * atoms,
                              atoms * sizeof(float)),
                  0)
            << "row " << r;
    }
}

/**
 * C51Head::loss on a batch of @p rows rows over @p outRows folded
 * output rows (at least 6 and 8), against refC51Loss row by row, with
 * and without importance weights. Output row 4 is NaN; row 5
 * underflows most atoms of action 1 to tiny probabilities (the log
 * clamps at 1e-12); row 3 has a +Inf logit in action 0 and a -Inf
 * logit in action 1. The other output rows and actions are drawn at
 * random, so larger batches fold many duplicate predictions.
 */
void
expectLossMatchesReference(std::uint32_t numActions, std::uint32_t atoms,
                           std::size_t rows, std::size_t outRows,
                           std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message()
                 << numActions << " actions, " << atoms << " atoms, "
                 << rows << " rows");
    AgentConfig cfg;
    cfg.numActions = numActions;
    cfg.atoms = atoms;
    C51Head head(cfg);
    const std::size_t width = head.outputWidth();
    Pcg32 rng(seed);
    volatile float zero = 0.0f;
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = inf * zero;

    std::vector<float> out(outRows * width);
    for (auto &v : out)
        v = static_cast<float>(rng.nextDouble(-3.0, 3.0));
    std::fill_n(out.data() + 4 * width, width, nan);
    for (std::size_t i = 0; i < atoms; i++)
        out[5 * width + atoms + i] = i == atoms * 2 / 5 ? 60.0f : -60.0f;
    out[3 * width + 1] = inf;
    out[3 * width + atoms + 2] = -inf;

    // Rows 0, 1 and 7 repeat the (output row 2, action 1) prediction
    // with different targets; rows 2 and 4 take the infinite logits;
    // row 3's target is NaN (a non-finite reward); row 6's target is
    // one-hot; targets come from the head itself so their zero/non-zero
    // pattern is realistic.
    std::vector<std::uint32_t> outRow(rows), actions(rows);
    std::vector<float> rewards(rows), weights(rows);
    for (std::size_t r = 0; r < rows; r++) {
        outRow[r] = rng.nextBounded(static_cast<std::uint32_t>(outRows));
        actions[r] = rng.nextBounded(numActions);
        rewards[r] = static_cast<float>(rng.nextDouble(-3.0, 15.0));
        weights[r] = static_cast<float>(rng.nextDouble(0.05, 1.0));
    }
    outRow[0] = outRow[1] = outRow[7] = 2;
    actions[0] = actions[1] = actions[7] = 1;
    outRow[2] = outRow[4] = 3;
    actions[2] = 0;
    actions[4] = 1;
    outRow[3] = 0; // keep NaN targets off the NaN output row
    rewards[3] = nan;
    outRow[5] = 5;
    actions[5] = 1;
    std::vector<float> next(rows * width);
    for (auto &v : next)
        v = static_cast<float>(rng.nextDouble(-3.0, 3.0));
    std::vector<float> targets(rows * atoms);
    head.target(next.data(), nullptr, rewards.data(), rows,
                targets.data());
    std::fill_n(targets.data() + 6 * atoms, atoms, 0.0f);
    targets[6 * atoms + std::min<std::size_t>(10, atoms - 1)] = 1.0f;

    for (const bool per : {false, true}) {
        std::vector<float> grad(outRows * width, 0.0f);
        std::vector<double> losses(rows);
        std::vector<float> priorities(rows);
        ValueHead::LossBatch b;
        b.rows = rows;
        b.out = out.data();
        b.outRows = outRows;
        b.outRow = outRow.data();
        b.actions = actions.data();
        b.targets = targets.data();
        b.weights = per ? weights.data() : nullptr;
        b.grad = grad.data();
        b.losses = losses.data();
        b.priorities = priorities.data();
        head.loss(b);

        std::vector<float> wantGrad(outRows * width, 0.0f);
        for (std::size_t r = 0; r < rows; r++) {
            float priority = 0.0f;
            const double loss = refC51Loss(
                cfg, out.data() + outRow[r] * width, actions[r],
                targets.data() + r * atoms, per ? weights[r] : 1.0f,
                wantGrad.data() + outRow[r] * width, priority);
            EXPECT_EQ(std::memcmp(&losses[r], &loss, sizeof loss), 0)
                << "row " << r << " per " << per;
            EXPECT_EQ(std::memcmp(&priorities[r], &priority,
                                  sizeof priority),
                      0)
                << "row " << r << " per " << per;
        }
        EXPECT_EQ(std::memcmp(grad.data(), wantGrad.data(),
                              grad.size() * sizeof(float)),
                  0)
            << "per " << per;
    }
}

TEST(C51HeadBatch, LossMatchesPerRowFormulasBitForBit)
{
    expectLossMatchesReference(2, 51, 19, 6, 92);
    // A full default batch over 40 output rows: about 80 distinct
    // predictions, most of them shared by folded duplicates.
    expectLossMatchesReference(2, 51, 128, 40, 93);
    // Atom counts off the lane width, one of them below 8, and wider
    // heads.
    expectLossMatchesReference(3, 13, 37, 9, 94);
    expectLossMatchesReference(4, 5, 29, 8, 95);
    expectLossMatchesReference(4, 51, 128, 50, 96);
}

} // namespace
} // namespace sibyl::rl
