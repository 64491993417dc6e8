#include "ml/optimizer.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "ml/simd.hh"

// Vector-typed parameters and returns below never cross a translation
// unit: every helper has internal linkage, so the vector ABI warning
// (which concerns calls between objects built for different targets)
// does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace sibyl::ml
{

namespace
{

/**
 * Visit a layer's parameters as two flat (param*, grad*, count, offset)
 * spans — weights then bias — so the update sweeps run over contiguous
 * arrays.
 */
template <typename Fn>
void
forEachParamSpan(DenseLayer &layer, Fn &&fn)
{
    Matrix &w = layer.weights();
    fn(w.data(), layer.gradWeights().data(), w.size(), std::size_t{0});
    fn(layer.bias().data(), layer.gradBias().data(), layer.bias().size(),
       w.size());
}

// ---------------------------------------------------------------------
// Subnormal-safe element updates.
//
// On x86 a multiply, divide or square root whose operand or result is
// a float subnormal takes a microcode assist that costs about as much
// as a hundred ordinary operations. Adam's moment estimates of units
// whose gradient is always zero decay into subnormal fixed points of
// m <- 0.9f * m (and v <- 0.999f * v) and stay there, so a plain float
// sweep would pay those assists on every step for the rest of a run.
//
// The sweep runs L elements at a time. A block whose inputs are all
// zero or comfortably normal (Adam::step derives the magnitude each
// input needs from its constants) runs the plain float expressions. Any other
// block runs them operation by operation, and an operation that has a
// lane which could read or produce a subnormal runs in double instead:
//
//   * a float subnormal is widened through its integer bits (a
//     conversion instruction would assist);
//   * the operation runs in double, where every float value is normal.
//     For binary32 operands, rounding to binary64 and then to binary32
//     gives the same result as rounding once to binary32 for +, -, x, /
//     and sqrt (53 >= 2 * 24 + 2); a product of two floats is exact;
//   * the result narrows with a plain conversion when it is at least
//     2^-126, and otherwise is rounded to a multiple of 2^-149 in
//     double (round to nearest even) and its float bits are built.
//
// Two cases that stuck moments hit on every step take a shortcut with
// the same result: a subnormal times a constant below 1 is rounded from
// its mantissa (CheckedOps::mul), and a subnormal plus a signed zero is
// the subnormal (CheckedOps::add).
//
// So every lane gets exactly the bits of the float expression whichever
// way it ran; the way only decides the cost. Adds and subtracts never
// assist, but they take the double form too when an operand is
// subnormal, so no instruction of a screened-out block reads a float
// subnormal and MXCSR's denormal flag stays clear (tests check it). No
// FTZ/DAZ mode is involved.
// ---------------------------------------------------------------------

/**
 * Lanes per block: eight whatever the target. The sweep is bound by
 * the divider, and GCC lowers a 16-lane square root to two halves
 * through the stack, so wider blocks only run slower.
 */
constexpr std::size_t L = 8;
using F = simd::Vec<L>;
using I = simd::VecOf<L>::Int;
typedef std::uint32_t U __attribute__((vector_size(L * sizeof(float))));

/** Lanes per double vector of the exact form: the target's register
 *  width (GCC scalarizes the selects of wider vectors). */
#if defined(__AVX512F__)
constexpr std::size_t LD = 8;
#elif defined(__AVX__)
constexpr std::size_t LD = 4;
#else
constexpr std::size_t LD = 2;
#endif
using FD = simd::Vec<LD>;
using ID = simd::VecOf<LD>::Int;
typedef std::uint32_t UD __attribute__((vector_size(LD * sizeof(float))));
typedef double D __attribute__((vector_size(LD * sizeof(double))));
typedef std::int64_t I64 __attribute__((vector_size(LD * sizeof(double))));
typedef std::uint64_t U64 __attribute__((vector_size(LD * sizeof(double))));

constexpr std::uint32_t kMinNormalBits = 0x00800000u; // 2^-126

[[gnu::always_inline]] inline U
absBits(F x)
{
    return __builtin_bit_cast(U, x) & 0x7fffffffu;
}

/** Lanes whose magnitude is in (0, limit): all-ones, else zero. */
[[gnu::always_inline]] inline I
nonzeroBelow(F x, std::uint32_t limitBits)
{
    return absBits(x) - 1u < limitBits - 1u;
}

[[gnu::always_inline]] inline I
subnormal(F x)
{
    return nonzeroBelow(x, kMinNormalBits);
}

/** Each lane's biased exponent, one less at an exact power of two, and
 *  511 for zero: a lower bound on the exponent that no zero meets. */
[[gnu::always_inline]] inline U
exponentOfNonzero(F x)
{
    return (absBits(x) - 1u) >> 23;
}

/** Whether any lane of @p mask is set. */
[[gnu::always_inline]] inline bool
anyLane(I mask)
{
    typedef std::int32_t Half __attribute__((vector_size(sizeof(I) / 2)));
    const Half half = __builtin_shufflevector(mask, mask, 0, 1, 2, 3) |
                      __builtin_shufflevector(mask, mask, 4, 5, 6, 7);
    std::uint64_t w[2];
    std::memcpy(w, &half, sizeof(w));
    return (w[0] | w[1]) != 0;
}

template <typename V>
[[gnu::always_inline]] inline V
sqrtLanes(V x)
{
    V r{};
    for (std::size_t j = 0; j < sizeof(V) / sizeof(x[0]); j++)
        r[j] = std::sqrt(x[j]);
    return r;
}

/** Exact float -> double, without handing a subnormal to a conversion. */
[[gnu::always_inline]] inline D
widen(FD x)
{
    const UD b = __builtin_bit_cast(UD, x);
    const ID sub = (b & 0x7fffffffu) - 1u < kMinNormalBits - 1u;
    const D normal = __builtin_convertvector(
        __builtin_bit_cast(FD, b & ~__builtin_bit_cast(UD, sub)), D);
    // A subnormal is its mantissa times 2^-149, sign applied.
    const ID mag = __builtin_bit_cast(ID, b & 0x007fffffu);
    const ID signedMag = __builtin_bit_cast(ID, b) < 0 ? -mag : mag;
    const D tiny = __builtin_convertvector(signedMag, D) * 0x1p-149;
    return __builtin_convertvector(sub, I64) != 0 ? tiny : normal;
}

/** Round double -> float (to nearest, ties to even), building the bits
 *  of results below 2^-126 instead of converting them. */
[[gnu::always_inline]] inline FD
narrow(D r)
{
    const U64 rb = __builtin_bit_cast(U64, r);
    const U64 ra = rb & 0x7fffffffffffffffull;
    // A double compare: these doubles are never subnormal.
    const I64 tiny = __builtin_bit_cast(D, ra) < 0x1p-126;
    const FD normal =
        __builtin_convertvector(__builtin_bit_cast(D, tiny ? U64{} : rb), FD);
    // |r| * 2^149 < 2^23 is exact; adding 2^52 rounds it to an integer
    // k in the low mantissa bits, and k * 2^-149 has float bits k
    // (k = 2^23 is 2^-126 itself).
    const D k = __builtin_bit_cast(D, ra) * 0x1p149 + 0x1p52;
    const U64 tinyBits = (__builtin_bit_cast(U64, k) & 0xffffffffull) |
                         ((rb >> 32) & 0x80000000ull);
    const UD out = __builtin_convertvector(tiny, ID) != 0
                       ? __builtin_convertvector(tinyBits, UD)
                       : __builtin_bit_cast(UD, normal);
    return __builtin_bit_cast(FD, out);
}

/** op on every lane in double, each result rounded once to float. */
template <typename Op>
[[gnu::noinline]] F
exact(F x, F y, Op op)
{
    F r;
    for (std::size_t q = 0; q < L; q += LD) {
        FD a, b;
        std::memcpy(&a, reinterpret_cast<const float *>(&x) + q, sizeof(a));
        std::memcpy(&b, reinterpret_cast<const float *>(&y) + q, sizeof(b));
        const FD c = narrow(op(widen(a), widen(b)));
        std::memcpy(reinterpret_cast<float *>(&r) + q, &c, sizeof(c));
    }
    return r;
}

/** Float bits of the limit |x| >= minAbs, clamped to [2^-126, FLT_MAX]
 *  so that a subnormal never passes. */
std::uint32_t
limitBits(double minAbs)
{
    const float f =
        static_cast<float>(std::clamp(minAbs, 0x1p-126, double{FLT_MAX}));
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/**
 * The screens keep the products that feed a later product or quotient
 * at 2^-85 or more: 2^40 above the normal range, room for an add that
 * cancels (its result is a multiple of 2^-23 of the smaller addend) and
 * for a divisor up to 2^16.
 */
constexpr double kHeadroom = 0x1p-85;

/** 2^-125 over |c|: above it, a product with c is normal. */
double
normalOver(float c)
{
    const double mag = std::fabs(static_cast<double>(c));
    return mag > 0.0 ? 0x1p-125 / mag : 0x1p-126;
}

/** |c| capped at 1 (and 1 for c = 0): by how much a product with c can
 *  shrink its other operand. */
double
shrinkOf(float c)
{
    const double mag = std::fabs(static_cast<double>(c));
    return mag > 0.0 ? std::min(1.0, mag) : 1.0;
}

/** A broadcast constant of an update, and the magnitude below which a
 *  nonzero lane multiplied by it could meet a subnormal. */
struct Factor
{
    F value;
    std::uint32_t riskBelow;
    double magnitude;   ///< |c|
    std::uint32_t sign; ///< c's sign bit
    bool belowOne;      ///< |c| < 1: products of subnormals stay subnormal

    explicit Factor(float c)
        : value(F{} + c),
          riskBelow(limitBits(std::isfinite(c) ? normalOver(c) : 0.0)),
          magnitude(std::fabs(static_cast<double>(c))),
          sign(std::signbit(c) ? 0x80000000u : 0u), belowOne(magnitude < 1.0)
    {
    }
};

/** The plain float expressions, for blocks whose inputs passed the
 *  screen. */
struct FloatOps
{
    F constant(const Factor &c) { return c.value; }
    F mul(F x, const Factor &c) { return c.value * x; }
    F mul(F x, F y) { return x * y; }
    F div(F n, F d) { return n / d; }
    F sqrt(F x) { return sqrtLanes(x); }
    F add(F x, F y) { return x + y; }
    F sub(F x, F y) { return x - y; }
};

/** Operation by operation: an operation with a lane that could read or
 *  produce a subnormal runs in the exact double form. */
struct CheckedOps
{
    F constant(const Factor &c) { return c.value; }
    F mul(F x, const Factor &c)
    {
        const I risky = nonzeroBelow(x, c.riskBelow);
        if (!anyLane(risky))
            return c.value * x;
        const I sub = subnormal(x);
        if (c.belowOne && !anyLane(risky & ~sub)) {
            // The common stuck case: only subnormal lanes, and |c| < 1
            // keeps their products below 2^-126. Such an x is k * 2^-149
            // for its mantissa k, and the product is the nearest-even
            // integer to k * |c| times 2^-149: k * |c| is exact in
            // double, and adding 2^52 leaves the rounded integer in the
            // low bits, which are the product's float bits.
            typedef double DL __attribute__((vector_size(L * 8)));
            typedef std::uint64_t UL __attribute__((vector_size(L * 8)));
            const U b = __builtin_bit_cast(U, x);
            const DL k = __builtin_convertvector(
                             __builtin_bit_cast(I, b & 0x007fffffu), DL) *
                             c.magnitude +
                         0x1p52;
            const U bits =
                __builtin_convertvector(__builtin_bit_cast(UL, k), U) |
                ((b ^ c.sign) & 0x80000000u);
            return sub ? __builtin_bit_cast(F, bits)
                       : c.value * (sub ? F{} : x);
        }
        return exact(c.value, x, [](D a, D b) { return a * b; });
    }
    F mul(F x, F y)
    {
        // A product of nonzero normals is normal once the exponents sum
        // to 128.
        if (anyLane(subnormal(x) | subnormal(y) |
                    (exponentOfNonzero(x) + exponentOfNonzero(y) < 128u)))
            return exact(x, y, [](D a, D b) { return a * b; });
        return x * y;
    }
    F div(F n, F d)
    {
        // A quotient of normals is normal once exponent(n) -
        // exponent(d) > -126.
        if (anyLane(subnormal(n) | subnormal(d) |
                    (exponentOfNonzero(n) + 126u <= (absBits(d) >> 23))))
            return exact(n, d, [](D a, D b) { return a / b; });
        return n / d;
    }
    F sqrt(F x)
    {
        if (anyLane(subnormal(x)))
            return exact(x, x, [](D a, D) { return sqrtLanes(a); });
        return sqrtLanes(x);
    }
    F add(F x, F y)
    {
        const I sx = subnormal(x), sy = subnormal(y);
        if (!anyLane(sx | sy))
            return x + y;
        // The common stuck case: a subnormal plus a signed zero is the
        // subnormal itself.
        const I zx = absBits(x) == 0u, zy = absBits(y) == 0u;
        if (!anyLane((sx & ~zy) | (sy & ~zx))) {
            const I either = sx | sy;
            const F sum = (either ? F{} : x) + (either ? F{} : y);
            return sx ? x : sy ? y : sum;
        }
        return exact(x, y, [](D a, D b) { return a + b; });
    }
    F sub(F x, F y)
    {
        if (anyLane(subnormal(x) | subnormal(y)))
            return exact(x, y, [](D a, D b) { return a - b; });
        return x - y;
    }
};

/**
 * Apply @p update to n elements of the K arrays in @p arrays, L at a
 * time (a ragged tail as one zero-padded block). update(ops, lanes)
 * rewrites lanes[k], the block of arrays[k], doing every arithmetic
 * operation through ops. The first S arrays are screened: a block runs
 * the plain float expressions when each of its lanes of arrays[s] is
 * zero or at least the float whose bits are limits[s], and operation
 * by operation otherwise. Lanes that pass can still meet a subnormal
 * through a rare cancellation; that only costs an assist.
 */
template <std::size_t S, std::size_t K, typename Update>
void
laneSweep(float *const (&arrays)[K], std::size_t n,
          const std::uint32_t (&limits)[S], Update &&update)
{
    auto block = [&](F (&x)[K]) {
        I screened = nonzeroBelow(x[0], limits[0]);
        for (std::size_t s = 1; s < S; s++)
            screened |= nonzeroBelow(x[s], limits[s]);
        if (anyLane(screened)) {
            CheckedOps ops;
            update(ops, x);
        } else {
            FloatOps ops;
            update(ops, x);
        }
    };
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
        F x[K];
        for (std::size_t k = 0; k < K; k++)
            x[k] = simd::vecAt<L>(arrays[k] + i);
        block(x);
        for (std::size_t k = 0; k < K; k++)
            simd::vecAt<L>(arrays[k] + i) = x[k];
    }
    if (i < n) {
        F x[K] = {};
        for (std::size_t k = 0; k < K; k++)
            for (std::size_t j = i; j < n; j++)
                x[k][j - i] = arrays[k][j];
        block(x);
        for (std::size_t k = 0; k < K; k++)
            for (std::size_t j = i; j < n; j++)
                arrays[k][j] = x[k][j - i];
    }
}

} // namespace

Sgd::Sgd(double lr) : lr_(lr) {}

void
Sgd::step(Network &net, std::size_t batchSize)
{
    if (batchSize == 0)
        batchSize = 1;
    const float scale = 1.0f / static_cast<float>(batchSize);
    const float lr = static_cast<float>(lr_);
    for (DenseLayer &layer : net.layers()) {
        forEachParamSpan(layer, [&](float *__restrict p, float *__restrict g,
                                    std::size_t n, std::size_t) {
            // Consuming the gradient (g[i] = 0) inside the update fuses
            // clearGrads() into this sweep. SGD keeps no state, so no
            // value can stick at a subnormal from step to step.
#pragma GCC ivdep
            for (std::size_t i = 0; i < n; i++) {
                p[i] -= lr * (g[i] * scale);
                g[i] = 0.0f;
            }
        });
    }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
}

void
Adam::step(Network &net, std::size_t batchSize)
{
    if (batchSize == 0)
        batchSize = 1;
    const float scaleF = 1.0f / static_cast<float>(batchSize);
    auto &layers = net.layers();
    if (m_.size() != layers.size()) {
        m_.assign(layers.size(), {});
        v_.assign(layers.size(), {});
        for (std::size_t i = 0; i < layers.size(); i++) {
            m_[i].assign(layers[i].paramCount(), 0.0f);
            v_[i].assign(layers[i].paramCount(), 0.0f);
        }
    }
    t_++;
    double corr1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    double corr2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    const float stepF = static_cast<float>(lr_ * std::sqrt(corr2) / corr1);
    const float b1F = static_cast<float>(beta1_);
    const float b1cF = static_cast<float>(1.0 - beta1_);
    const float b2F = static_cast<float>(beta2_);
    const float b2cF = static_cast<float>(1.0 - beta2_);
    const Factor scale(scaleF), stepSize(stepF), b1(b1F), b1c(b1cF), b2(b2F),
        b2c(b2cF), eps(static_cast<float>(eps_));
    // m = b1 * m + b1c * grad feeds stepSize * m; grad also feeds
    // b2c * grad * grad; v feeds b2 * v and its square root.
    const double stepShrink = shrinkOf(stepF);
    const double gradMin =
        std::max({kHeadroom / stepShrink / shrinkOf(b1cF), normalOver(b2cF),
                  std::sqrt(normalOver(b2cF))});
    const std::uint32_t limits[3] = {
        limitBits(gradMin / scaleF),
        limitBits(kHeadroom / stepShrink / shrinkOf(b1F)),
        limitBits(normalOver(b2F))};

    for (std::size_t li = 0; li < layers.size(); li++) {
        float *mBase = m_[li].data();
        float *vBase = v_[li].data();
        forEachParamSpan(
            layers[li],
            [&](float *p, float *g, std::size_t n, std::size_t base) {
                // g = 0 fuses clearGrads() into this single sweep.
                laneSweep(
                    {g, mBase + base, vBase + base, p}, n, limits,
                    [&](auto &ops, auto &x) {
                        auto &[gv, mv, vv, pv] = x;
                        const auto grad = ops.mul(gv, scale);
                        gv = decltype(gv){};
                        mv = ops.add(ops.mul(mv, b1), ops.mul(grad, b1c));
                        vv = ops.add(ops.mul(vv, b2),
                                     ops.mul(ops.mul(grad, b2c), grad));
                        pv = ops.sub(pv,
                                     ops.div(ops.mul(mv, stepSize),
                                             ops.add(ops.sqrt(vv),
                                                     ops.constant(eps))));
                    });
            });
    }
}

} // namespace sibyl::ml

#pragma GCC diagnostic pop
