#include "ml/optimizer.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "ml/simd.hh"

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
// The sweep runs L elements at a time, and each block takes one of
// three ways (AdamStep derives every threshold from the step's
// constants):
//
//   1. Clean: every g, m and v is zero or comfortably normal. The block
//      runs the plain float expressions (a lane can still meet a
//      subnormal through a rare cancellation; that only costs an
//      assist).
//   2. Zero-gradient: every other lane has g = +-0 and an m small
//      enough that p provably does not move (a dead unit, m decaying
//      toward or stuck at a fixed point). The block runs the plain float
//      expressions with those lanes' m read as +0, which leaves their g,
//      v and p exactly as the update would, and then writes their
//      m' = b1 * m exactly: rounded from m's bits below 2^-125
//      (mulTiny), in float above it. Stuck fixed points thus keep m.
//   3. Checked: any other block runs the expressions operation by
//      operation, and an operation that has a lane which could read or
//      produce a subnormal runs in double instead:
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
// A multiply whose only risky lanes are subnormals times a constant
// below 1 takes mulTiny instead of the double form.
//
// So every lane gets exactly the bits of the float expression whichever
// way it ran; the way only decides the cost. Adds and subtracts never
// assist, but they take the double form too when an operand is
// subnormal, so no instruction of a zero-gradient or checked block
// reads a float subnormal and MXCSR's denormal flag stays clear (tests
// check it). No FTZ/DAZ mode is involved.
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

using simd::anyLane;

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

/**
 * c * x without a float multiply, exact on lanes where |x| < 2^-125 and
 * |c| < 1 (other lanes get garbage). Such an x is k * 2^-149 for its
 * magnitude bits k (a subnormal, or a normal of the lowest binade), and
 * the product is below 2^-125, where floats are the multiples of
 * 2^-149, so it is the nearest-even integer to k * |c| times 2^-149:
 * k * |c| is exact in double, and adding 2^52 leaves the rounded
 * integer in the low bits, which are the product's float bits.
 */
[[gnu::always_inline]] inline F
mulTiny(F x, const Factor &c)
{
    typedef double DL __attribute__((vector_size(L * 8)));
    typedef std::uint64_t UL __attribute__((vector_size(L * 8)));
    const U b = __builtin_bit_cast(U, x);
    const DL k =
        __builtin_convertvector(__builtin_bit_cast(I, b & 0x7fffffffu), DL) *
            c.magnitude +
        0x1p52;
    const U bits = __builtin_convertvector(__builtin_bit_cast(UL, k), U) |
                   ((b ^ c.sign) & 0x80000000u);
    return __builtin_bit_cast(F, bits);
}

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
        // The common stuck case: only subnormal lanes are risky.
        const I sub = subnormal(x);
        if (c.belowOne && !anyLane(risky & ~sub))
            return sub ? mulTiny(x, c) : c.value * (sub ? F{} : x);
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
        if (anyLane(subnormal(x) | subnormal(y)))
            return exact(x, y, [](D a, D b) { return a + b; });
        return x + y;
    }
    F sub(F x, F y)
    {
        if (anyLane(subnormal(x) | subnormal(y)))
            return exact(x, y, [](D a, D b) { return a - b; });
        return x - y;
    }
};

/**
 * One step's constants, and the thresholds that sort its blocks.
 *
 * The screens: a lane of g, m or v is risky when it is nonzero and
 * below the float whose bits are gradBelow, momentBelow or
 * varianceBelow.
 *
 * The zero-gradient class: a risky lane whose g is +-0, whose v is not
 * risky and lies in [+0, +Inf], and whose p is normal gets
 * m' = b1 * m + (+-0) = b1 * m (nonzero for 0.5 < b1 < 1),
 * v' = b2 * v >= 0, g' = +0 and p' = p - q with
 * q = stepSize * m' / (sqrt(v') + eps). As |m'| <= |m|, the divisor is
 * at least eps, rounding is monotone and fl(y) <= y (1 + 2^-23) +
 * 2^-149 for y >= 0,
 *
 *   |q| <= fl(fl(|stepSize| |m|) / eps) <= |stepSize| |m| (1 + 2^-21) /
 *          eps + a,   a = 2^-149 ((1 + 2^-23) / eps + 1).
 *
 * p' = p once |q| is below half of p's spacing toward zero, h =
 * 2^(e - 152), where e is p's biased exponent plus one when p is not a
 * power of two. With p's biased exponent at least stillMinBits >> 23,
 * h >= 2^20 a, so that holds when |m| < h * rho, rho = eps (1 - 2^-19) /
 * (|stepSize| (1 + 2^-21)) (the extra 2^-20 covers rho's own rounding).
 * The largest float not above h * rho has the bits (e << 23) +
 * stillOffset while it is normal; below that the same bits undercount
 * it, so |m|'s bits below (e << 23) + stillOffset (a signed compare)
 * prove p' = p.
 */
struct AdamStep
{
    Factor scale, stepSize, b1, b1c, b2, b2c, eps;
    std::uint32_t gradBelow, momentBelow, varianceBelow;
    std::uint32_t stillOffset = 0x80000000u; ///< no lane
    std::uint32_t stillMinBits = 254u << 23;

    AdamStep(float scaleF, float stepF, float b1F, float b1cF, float b2F,
             float b2cF, float epsF)
        : scale(scaleF), stepSize(stepF), b1(b1F), b1c(b1cF), b2(b2F),
          b2c(b2cF), eps(epsF)
    {
        // m = b1 * m + b1c * grad feeds stepSize * m; grad also feeds
        // b2c * grad * grad; v feeds b2 * v and its square root.
        const double stepShrink = shrinkOf(stepF);
        const double gradMin = std::max(
            {kHeadroom / stepShrink / shrinkOf(b1cF), normalOver(b2cF),
             std::sqrt(normalOver(b2cF))});
        gradBelow = limitBits(gradMin / scaleF);
        momentBelow = limitBits(kHeadroom / stepShrink / shrinkOf(b1F));
        varianceBelow = limitBits(normalOver(b2F));

        const bool constantsHold =
            b1F > 0.5f && b1F < 1.0f && std::isfinite(b1cF) && b2F > 0.0f &&
            std::isfinite(b2F) && std::isfinite(b2cF) &&
            std::isfinite(stepF) && stepF != 0.0f && std::isfinite(epsF) &&
            epsF > 0.0f;
        if (!constantsHold)
            return;
        // Both doubles are positive and normal, so their bits give the
        // exponent (bits >> 52, biased by 1023) and, shifted right by
        // 29, a float-like pattern of rho rounded down whose exponent is
        // biased by 1023 instead of 127.
        const double epsD = epsF;
        const auto bitsOf = [](double x) {
            std::uint64_t b;
            std::memcpy(&b, &x, sizeof(b));
            return static_cast<std::int64_t>(b);
        };
        // 173 + floor(log2 a).
        const std::int64_t minExp =
            173 +
            (bitsOf(0x1p-149 * ((1.0 + 0x1p-23) / epsD + 1.0)) >> 52) - 1023;
        // Bits of h * rho for e = 0: rho * 2^-152, rebiased.
        const std::int64_t offset =
            (bitsOf(epsD * (1.0 - 0x1p-19) /
                    (std::fabs(double{stepF}) * (1.0 + 0x1p-21))) >>
             29) -
            (std::int64_t{1023 + 152 - 127} << 23);
        if (minExp > 254 || offset < INT32_MIN)
            return;
        // (e << 23) + stillOffset must not pass INT32_MAX for e <= 255;
        // a lower offset only admits fewer lanes.
        stillOffset = static_cast<std::uint32_t>(
            std::min<std::int64_t>(offset, INT32_MAX - (255 << 23)));
        stillMinBits = static_cast<std::uint32_t>(std::max<std::int64_t>(
                           minExp, 1))
                       << 23;
    }
};

/** One block: L elements of each array. */
struct Block
{
    F g, m, v, p;
};

/** The update's float expressions, every operation through @p ops. */
template <typename Ops>
[[gnu::always_inline]] inline void
update(Ops &ops, const AdamStep &k, Block &b)
{
    const F grad = ops.mul(b.g, k.scale);
    b.g = F{};
    b.m = ops.add(ops.mul(b.m, k.b1), ops.mul(grad, k.b1c));
    b.v = ops.add(ops.mul(b.v, k.b2), ops.mul(ops.mul(grad, k.b2c), grad));
    b.p = ops.sub(b.p, ops.div(ops.mul(b.m, k.stepSize),
                               ops.add(ops.sqrt(b.v), ops.constant(k.eps))));
}

/** Lanes of the zero-gradient class (see AdamStep), given their v is
 *  not risky. */
[[gnu::always_inline]] inline I
zeroGradientLanes(const AdamStep &k, const Block &b)
{
    const U pb = absBits(b.p);
    // e << 23 (see AdamStep): p's exponent field, one higher unless p
    // is a power of two.
    const U eBits = (pb + 0x007fffffu) & 0x7f800000u;
    const I mBelow = __builtin_bit_cast(I, absBits(b.m)) <
                     __builtin_bit_cast(I, eBits + k.stillOffset);
    // v in [+0, +Inf]; p normal with its exponent bits at least
    // stillMinBits.
    return (absBits(b.g) == 0u) & (__builtin_bit_cast(U, b.v) <= 0x7f800000u) &
           (pb - k.stillMinBits < 0x7f800000u - k.stillMinBits) & mBelow;
}

/** The rare block with a risky lane outside the zero-gradient class,
 *  kept out of line. */
[[gnu::noinline]] Block
checkedBlock(const AdamStep &k, Block b)
{
    CheckedOps ops;
    update(ops, k, b);
    return b;
}

/**
 * One block of the update, the way its lanes allow: the plain float
 * expressions when no lane is risky; the same with the zero-gradient
 * lanes' m read as +0 (which leaves their g, v and p exactly as the
 * update would) and then m' = b1 * m written exactly, when every risky
 * lane is one of those; operation by operation otherwise.
 */
[[gnu::always_inline]] inline Block
adamBlock(const AdamStep &k, Block b)
{
    const I riskyM = nonzeroBelow(b.m, k.momentBelow);
    const I riskyV = nonzeroBelow(b.v, k.varianceBelow);
    const I risky = nonzeroBelow(b.g, k.gradBelow) | riskyM | riskyV;
    FloatOps plain;
    if (!anyLane(risky)) {
        update(plain, k, b);
        return b;
    }
    const I still = riskyM & ~riskyV & zeroGradientLanes(k, b);
    if (anyLane(risky & ~still))
        return checkedBlock(k, b);
    // b1 * m, exact: below 2^-125 from m's bits, above it in float,
    // where 0.5 < b1 keeps the product normal. Every risky lane is in
    // the class, so still is riskyM.
    const I low = absBits(b.m) < 0x01000000u; // |m| < 2^-125
    const F decayed =
        low ? mulTiny(b.m, k.b1) : k.b1.value * (low ? F{} : b.m);
    b.m = riskyM ? F{} : b.m;
    update(plain, k, b);
    b.m = riskyM ? decayed : b.m;
    return b;
}

/** The update over n elements, L at a time (a ragged tail as one
 *  zero-padded block). */
void
adamSweep(const AdamStep &k, float *g, float *m, float *v, float *p,
          std::size_t n)
{
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
        const Block b =
            adamBlock(k, {simd::vecAt<L>(g + i), simd::vecAt<L>(m + i),
                          simd::vecAt<L>(v + i), simd::vecAt<L>(p + i)});
        simd::vecAt<L>(g + i) = b.g;
        simd::vecAt<L>(m + i) = b.m;
        simd::vecAt<L>(v + i) = b.v;
        simd::vecAt<L>(p + i) = b.p;
    }
    if (i < n) {
        Block b{};
        for (std::size_t j = i; j < n; j++) {
            b.g[j - i] = g[j];
            b.m[j - i] = m[j];
            b.v[j - i] = v[j];
            b.p[j - i] = p[j];
        }
        b = adamBlock(k, b);
        for (std::size_t j = i; j < n; j++) {
            g[j] = b.g[j - i];
            m[j] = b.m[j - i];
            v[j] = b.v[j - i];
            p[j] = b.p[j - i];
        }
    }
}

} // namespace

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
    const AdamStep k(scaleF, stepF, static_cast<float>(beta1_),
                     static_cast<float>(1.0 - beta1_),
                     static_cast<float>(beta2_),
                     static_cast<float>(1.0 - beta2_),
                     static_cast<float>(eps_));
    for (std::size_t li = 0; li < layers.size(); li++) {
        float *mBase = m_[li].data();
        float *vBase = v_[li].data();
        // g = 0 fuses clearGrads() into this single sweep.
        forEachParamSpan(layers[li], [&](float *p, float *g, std::size_t n,
                                         std::size_t base) {
            adamSweep(k, g, mBase + base, vBase + base, p, n);
        });
    }
}

} // namespace sibyl::ml
