#include "ml/activations.hh"

#include "ml/kernel_dispatch.hh"
#include "ml/simd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace sibyl::ml
{

namespace
{

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

using simd::fastExpf;
using simd::fastSigmoidf;
using simd::fastTanhf;

} // namespace

const char *
activationName(Activation a)
{
    switch (a) {
      case Activation::Identity: return "identity";
      case Activation::ReLU:     return "relu";
      case Activation::Sigmoid:  return "sigmoid";
      case Activation::Tanh:     return "tanh";
      case Activation::Swish:    return "swish";
    }
    return "?";
}

float
activate(Activation a, float x)
{
    switch (a) {
      case Activation::Identity:
        return x;
      case Activation::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Activation::Sigmoid:
        return sigmoidf(x);
      case Activation::Tanh:
        return std::tanh(x);
      case Activation::Swish:
        return x * sigmoidf(x);
    }
    return x;
}

float
activateGrad(Activation a, float x)
{
    switch (a) {
      case Activation::Identity:
        return 1.0f;
      case Activation::ReLU:
        return x > 0.0f ? 1.0f : 0.0f;
      case Activation::Sigmoid: {
        float s = sigmoidf(x);
        return s * (1.0f - s);
      }
      case Activation::Tanh: {
        float t = std::tanh(x);
        return 1.0f - t * t;
      }
      case Activation::Swish: {
        // d/dx [x*s(x)] = s(x) + x*s(x)*(1-s(x))
        float s = sigmoidf(x);
        return s + x * s * (1.0f - s);
      }
    }
    return 1.0f;
}

void
activate(Activation a, const Vector &in, Vector &out)
{
    out.resize(in.size());
    activate(a, in.data(), out.data(), in.size());
}

void
activateGrad(Activation a, const Vector &in, Vector &out)
{
    out.resize(in.size());
    for (std::size_t i = 0; i < in.size(); i++)
        out[i] = activateGrad(a, in[i]);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateSpanImpl(Activation a, const float *in, float *out, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
        if (out != in)
            std::copy(in, in + n, out);
        break;
      case Activation::ReLU:
        for (std::size_t i = 0; i < n; i++)
            out[i] = in[i] > 0.0f ? in[i] : 0.0f;
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++)
            out[i] = fastSigmoidf(in[i]);
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++)
            out[i] = fastTanhf(in[i]);
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++)
            out[i] = in[i] * fastSigmoidf(in[i]);
        break;
    }
}

} // namespace

void
activate(Activation a, const float *in, float *out, std::size_t n)
{
    activateSpanImpl(a, in, out, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateGradMulImpl(Activation a, const float *pre, const float *gradOut,
                float *delta, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
        if (delta != gradOut)
            std::copy(gradOut, gradOut + n, delta);
        break;
      case Activation::ReLU:
        for (std::size_t i = 0; i < n; i++)
            delta[i] = pre[i] > 0.0f ? gradOut[i] : 0.0f;
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(pre[i]);
            delta[i] = gradOut[i] * s * (1.0f - s);
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = fastTanhf(pre[i]);
            delta[i] = gradOut[i] * (1.0f - t * t);
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(pre[i]);
            delta[i] = gradOut[i] * (s + pre[i] * s * (1.0f - s));
        }
        break;
    }
}

} // namespace

void
activateGradMul(Activation a, const float *pre, const float *gradOut,
                float *delta, std::size_t n)
{
    activateGradMulImpl(a, pre, gradOut, delta, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateWithAuxImpl(Activation a, const float *in, float *out, float *aux,
                std::size_t n)
{
    switch (a) {
      case Activation::Identity:
      case Activation::ReLU:
        activate(a, in, out, n);
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(in[i]);
            out[i] = s;
            aux[i] = s;
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = fastTanhf(in[i]);
            out[i] = t;
            aux[i] = t;
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = fastSigmoidf(in[i]);
            out[i] = in[i] * s;
            aux[i] = s;
        }
        break;
    }
}

} // namespace

void
activateWithAux(Activation a, const float *in, float *out, float *aux,
                std::size_t n)
{
    activateWithAuxImpl(a, in, out, aux, n);
}

namespace
{

SIBYL_KERNEL_CLONES
void
activateGradMulAuxImpl(Activation a, const float *pre, const float *aux,
                   const float *gradOut, float *delta, std::size_t n)
{
    switch (a) {
      case Activation::Identity:
      case Activation::ReLU:
        activateGradMul(a, pre, gradOut, delta, n);
        break;
      case Activation::Sigmoid:
        for (std::size_t i = 0; i < n; i++) {
            const float s = aux[i];
            delta[i] = gradOut[i] * s * (1.0f - s);
        }
        break;
      case Activation::Tanh:
        for (std::size_t i = 0; i < n; i++) {
            const float t = aux[i];
            delta[i] = gradOut[i] * (1.0f - t * t);
        }
        break;
      case Activation::Swish:
        for (std::size_t i = 0; i < n; i++) {
            const float s = aux[i];
            delta[i] = gradOut[i] * (s + pre[i] * s * (1.0f - s));
        }
        break;
    }
}

} // namespace

void
activateGradMulAux(Activation a, const float *pre, const float *aux,
                   const float *gradOut, float *delta, std::size_t n)
{
    activateGradMulAuxImpl(a, pre, aux, gradOut, delta, n);
}

void
activate(Activation a, const Matrix &in, Matrix &out)
{
    out.resize(in.rows(), in.cols());
    activate(a, in.data(), out.data(), in.size());
}

void
softmax(Vector &v)
{
    softmax(v.data(), v.size());
}

namespace
{

/** Exponentiation sweep of softmax: v[i] = exp(v[i] - mx). Hoisted
 *  out of the sum so the loop carries no reduction and vectorizes —
 *  the fused exp+accumulate form ran scalar, and softmax was the
 *  single largest cost of a C51 training batch (one 51-wide call per
 *  action group per row). */
SIBYL_KERNEL_CLONES
void
softmaxExp(float *v, float mx, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        v[i] = fastExpf(v[i] - mx);
}

/** Normalization sweep of softmax (elementwise, vectorizes). */
SIBYL_KERNEL_CLONES
void
softmaxScale(float *v, float sum, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        v[i] /= sum;
}

/** Lane-wise first maximum: @p y replaces @p m only when strictly
 *  greater, so a NaN in @p m sticks and a NaN in @p y is skipped. */
template <typename V>
[[gnu::always_inline]] inline V
firstMax(V m, V y)
{
    return m < y ? y : m;
}

/** @p x repeated across W lanes (W a multiple of L). */
template <std::size_t L, std::size_t W>
[[gnu::always_inline]] inline simd::Vec<W>
repeatLanes(simd::Vec<L> x)
{
    simd::Vec<W> r;
    for (std::size_t j = 0; j < W; j++)
        r[j] = x[j % L];
    return r;
}

/** Fold the W / L lane groups of @p acc, each a running maximum of
 *  the same L groups, into one L-lane maximum. */
template <std::size_t L, std::size_t W>
[[gnu::always_inline]] inline simd::Vec<L>
foldMax(simd::Vec<W> acc)
{
    if constexpr (W == L) {
        return acc;
    } else {
        constexpr std::size_t H = W / 2;
        simd::Vec<H> lo, hi;
        for (std::size_t j = 0; j < H; j++) {
            lo[j] = acc[j];
            hi[j] = acc[H + j];
        }
        return foldMax<L, H>(firstMax(lo, hi));
    }
}

/**
 * softmaxLanes() with the elementwise steps on W-lane vectors (W a
 * multiple of L, n * L >= W): each W-lane vector holds W / L
 * consecutive elements of all L groups. Only the sum is a serial chain
 * per group, run on L lanes in ascending element order.
 *
 * The maximum is a tree over the W-lane vectors, seeded with every
 * group's first element. That finds the first maximum's value: a
 * group whose first element is NaN keeps that NaN in every partial
 * maximum, and otherwise no partial maximum is ever NaN. Among equal
 * values it may keep the other zero's sign, which changes no result:
 * e - (+0) and e - (-0) differ only when e is a zero, and fastExpf
 * maps both zeros to the same bits.
 */
template <std::size_t L, std::size_t W>
[[gnu::always_inline]] inline void
softmaxLanesBy(float *v, std::size_t n)
{
    using VL = simd::Vec<L>;
    using VW = simd::Vec<W>;
    using simd::vecAt;
    const std::size_t total = n * L;
    const std::size_t whole = total - total % W;

    VW acc = repeatLanes<L, W>(vecAt<L>(v));
    for (std::size_t i = 0; i < whole; i += W)
        acc = firstMax(acc, VW(vecAt<W>(v + i)));
    if (whole < total) // the last W elements, overlapping; read only
        acc = firstMax(acc, VW(vecAt<W>(v + total - W)));
    const VL mx = foldMax<L, W>(acc);

    const VW mxW = repeatLanes<L, W>(mx);
    for (std::size_t i = 0; i < whole; i += W)
        vecAt<W>(v + i) = fastExpf(VW(vecAt<W>(v + i)) - mxW);
    for (std::size_t i = whole; i < total; i += L)
        vecAt<L>(v + i) = fastExpf(VL(vecAt<L>(v + i)) - mx);

    VL sum = VL{};
    for (std::size_t i = 0; i < total; i += L)
        sum += vecAt<L>(v + i);
    sum = sum <= VL{} ? VL{} + 1.0f : sum;

    const VW sumW = repeatLanes<L, W>(sum);
    for (std::size_t i = 0; i < whole; i += W)
        vecAt<W>(v + i) /= sumW;
    for (std::size_t i = whole; i < total; i += L)
        vecAt<L>(v + i) /= sum;
}

} // namespace

template <std::size_t L>
SIBYL_KERNEL_CLONES void
softmaxLanes(float *v, std::size_t n)
{
    // Groups too short to fill one native vector (fewer than 8 atoms
    // for 2 lanes) run on L-lane vectors throughout.
    if (n * L >= simd::kLanes)
        softmaxLanesBy<L, simd::kLanes>(v, n);
    else if (n > 0)
        softmaxLanesBy<L, L>(v, n);
}

template void softmaxLanes<2>(float *v, std::size_t n);
template void softmaxLanes<kSoftmaxLanes>(float *v, std::size_t n);

void
softmax(float *v, std::size_t n)
{
    if (n == 0)
        return;
    float mx = *std::max_element(v, v + n);
    softmaxExp(v, mx, n);
    // Sequential sum, same order as the historical fused loop: the
    // split changes instruction scheduling, never a result bit.
    float sum = 0.0f;
    for (std::size_t i = 0; i < n; i++)
        sum += v[i];
    if (sum <= 0.0f)
        sum = 1.0f;
    softmaxScale(v, sum, n);
}

namespace
{

// glibc's logf (glibc >= 2.28; Arm optimized-routines), transcribed.
// x = 2^k z with z in [0.7, 1.4) (bits 0x3f330000 up to one binade
// higher), and log(x) = k ln2 + log(c) + log1p(z/c - 1) for the c near
// z among 16 table points. The table, the constants and the operation
// order are glibc's, all in double with one rounding to float at the
// end. glibc picks an FMA or a plain build of it at load time; both
// round every float alike (checked over all positive floats), so this
// one, without FMA (-ffp-contract=off), matches either.
constexpr std::uint32_t kLogOff = 0x3f330000u;
alignas(64) constexpr double kLogInvc[16] = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010bp+0,
    0x1.3c995b0b80385p+0, 0x1.30d190c8864a5p+0, 0x1.25e227b0b8eap+0,
    0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0, 0x1.0953f419900a7p+0,
    0x1p+0,               0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aap-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1,
    0x1.767dcf5534862p-1,
};
alignas(64) constexpr double kLogLogc[16] = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2, -0x1.01eae7f513a67p-2,
    -0x1.b31d8a68224e9p-3, -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c81p-3,
    -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4, -0x1.252f438e10c1ep-5,
    0x0p+0,                0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d22477p-3,   0x1.1058bc8a07ee1p-2,
    0x1.4043057b6ee09p-2,
};
constexpr double kLogLn2 = 0x1.62e42fefa39efp-1;
constexpr double kLogA0 = -0x1.00ea348b88334p-2;
constexpr double kLogA1 = 0x1.5575b0be00b6ap-2;
constexpr double kLogA2 = -0x1.ffffef20a4123p-2;

/** Lanes of one logSpan() step. */
constexpr std::size_t kLogLanes = 8;
using LogF = simd::Vec<kLogLanes>;
using LogI = simd::VecOf<kLogLanes>::Int;
typedef std::uint32_t LogU
    __attribute__((vector_size(kLogLanes * sizeof(float))));
typedef std::uint64_t LogQ
    __attribute__((vector_size(kLogLanes * sizeof(double))));
typedef double LogD __attribute__((vector_size(kLogLanes * sizeof(double))));

/**
 * 64-bit lanes whose low and high halves are @p lo and @p hi. One
 * interleaving shuffle (vpmovzxdq against zeros): GCC 12 splits the
 * 8 x 32 to 8 x 64-bit __builtin_convertvector forms into halves.
 */
[[gnu::always_inline]] inline LogQ
widen(LogU lo, LogU hi)
{
    return __builtin_bit_cast(
        LogQ, __builtin_shufflevector(lo, hi, 0, 8, 1, 9, 2, 10, 3, 11, 4, 12,
                                      5, 13, 6, 14, 7, 15));
}

/** Table entry @p idx of each lane. With AVX-512 the 16 entries fill
 *  two registers and one two-source permute (vpermt2pd) picks them;
 *  otherwise each lane loads its own. */
[[gnu::always_inline]] inline LogD
logTable(const double *tab, LogU idx)
{
#if defined(__AVX512F__)
    typedef std::int64_t Idx
        __attribute__((vector_size(kLogLanes * sizeof(double))));
    LogD lo, hi;
    std::memcpy(&lo, tab, sizeof(lo));
    std::memcpy(&hi, tab + kLogLanes, sizeof(hi));
    return __builtin_shuffle(lo, hi,
                             __builtin_bit_cast(Idx, widen(idx, LogU{})));
#else
    LogD r;
    for (std::size_t l = 0; l < kLogLanes; l++)
        r[l] = tab[idx[l]];
    return r;
#endif
}

/**
 * logf of each lane that is a positive normal finite float; other
 * lanes get garbage. The doubles come from the float bits by integer
 * operations, which give exactly the conversions' values: z, a
 * positive normal float, widens to the double with the same mantissa
 * and its exponent rebased by 1023 - 127; the integer k becomes
 * 2^52 + 2^31 + k (its bits after 0x43300000) less 2^52 + 2^31.
 */
[[gnu::always_inline]] inline LogF
logfLanes(LogF x)
{
    const LogU ix = __builtin_bit_cast(LogU, x);
    const LogU tmp = ix - kLogOff;
    const LogU idx = (tmp >> 19) & 15u;
    const LogU iz = ix - (tmp & 0xff800000u);
    const LogD z = __builtin_bit_cast(
        LogD, (widen(iz, LogU{}) << 29) + 0x3800000000000000ull);
    const LogI k = __builtin_bit_cast(LogI, tmp) >> 23; // arithmetic
    const LogU kBiased = __builtin_bit_cast(LogU, k) ^ 0x80000000u;
    const LogD kd = __builtin_bit_cast(
                        LogD, widen(kBiased, LogU{} + 0x43300000u)) -
        0x1.000008p52;
    const LogD r = z * logTable(kLogInvc, idx) - 1.0;
    const LogD y0 = logTable(kLogLogc, idx) + kd * kLogLn2;
    const LogD r2 = r * r;
    LogD y = kLogA1 * r + kLogA2;
    y = kLogA0 * r2 + y;
    y = y * r2 + (y0 + r);
    return __builtin_convertvector(y, LogF);
}

/** Lanes of @p x that logfLanes() does not cover: zeros, negatives,
 *  subnormals, Inf and NaN. */
[[gnu::always_inline]] inline LogI
specialLanes(LogF x)
{
    return __builtin_bit_cast(LogU, x) - 0x00800000u >= 0x7f000000u;
}

/** One step of logSpan() over V vectors of kLogLanes floats, with one
 *  test for special lanes, which take libm's own logf, so their bits —
 *  NaN payloads included — are libm's. Loads every input before it
 *  stores, so @p out may alias @p in. */
template <std::size_t V>
[[gnu::always_inline]] inline void
logStep(const LogF *in, LogF *out)
{
    LogF x[V], y[V];
    LogI special = LogI{};
    for (std::size_t v = 0; v < V; v++) {
        x[v] = in[v];
        y[v] = logfLanes(x[v]);
        special |= specialLanes(x[v]);
    }
    if (simd::anyLane(special))
        for (std::size_t v = 0; v < V; v++)
            for (std::size_t l = 0; l < kLogLanes; l++)
                if (specialLanes(x[v])[l])
                    y[v][l] = std::log(x[v][l]);
    for (std::size_t v = 0; v < V; v++)
        out[v] = y[v];
}

} // namespace

SIBYL_KERNEL_CLONES void
logSpan(const float *in, float *out, std::size_t n)
{
    // Two vectors per step: the special-lane test costs as much as a
    // third of a vector's log, and a step of two pays it once.
    constexpr std::size_t W = kLogLanes;
    using simd::vecAt;
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
        LogF x[2], y[2];
        x[0] = vecAt<W>(in + i);
        x[1] = vecAt<W>(in + i + W);
        logStep<2>(x, y);
        vecAt<W>(out + i) = y[0];
        vecAt<W>(out + i + W) = y[1];
    }
    for (; i + W <= n; i += W) {
        LogF x = vecAt<W>(in + i), y;
        logStep<1>(&x, &y);
        vecAt<W>(out + i) = y;
    }
    if (i < n) { // a ragged tail, padded with ones
        LogF x = LogF{} + 1.0f, y;
        std::memcpy(&x, in + i, (n - i) * sizeof(float));
        logStep<1>(&x, &y);
        std::memcpy(out + i, &y, (n - i) * sizeof(float));
    }
}

void
groupedSoftmax(Vector &v, std::size_t groupSize)
{
    assert(groupSize > 0 && v.size() % groupSize == 0);
    for (std::size_t g = 0; g < v.size(); g += groupSize)
        softmax(v.data() + g, groupSize);
}

} // namespace sibyl::ml
