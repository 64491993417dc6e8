/**
 * @file
 * SIMD building blocks shared by the ML kernels (internal).
 *
 * GCC vector-extension types, the native lane count of the register
 * tiles, the ragged-row vector tiling, and the one polynomial exp the
 * activation sweeps, the fused row kernel and the lane softmax all
 * evaluate. Every operation on a vector is lane-wise IEEE arithmetic,
 * so a lane gets exactly the bits the scalar operation gives (see
 * kernel_dispatch.hh for why lane width never changes a result).
 * Everything here is force-inlined so that it compiles for the ISA of
 * the (possibly target-cloned) kernel that uses it.
 */

#pragma once

#include "ml/kernel_dispatch.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace sibyl::ml::simd
{

/**
 * Lane count of the register tiles (matmulAdd's mmaTile,
 * transposedMatmulAdd's tmaTile and tmaNarrow, the fused row kernel):
 * one native vector of the compile target. Lanes only ever hold
 * independent outputs, so the width sets how many outputs advance
 * together, never the order of operations within one.
 */
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#else
constexpr std::size_t kLanes = 8;
#endif

/**
 * L-lane float vector and its int32 twin (GCC vector extensions). A
 * vector wider than the target's registers is lowered to several
 * narrower ops. Loads and stores go through the unaligned, aliasing
 * twin.
 */
template <std::size_t L>
struct VecOf
{
    typedef float Type __attribute__((vector_size(L * sizeof(float))));
    typedef float Unaligned
        __attribute__((vector_size(L * sizeof(float)),
                       aligned(alignof(float)), may_alias));
    typedef std::int32_t Int
        __attribute__((vector_size(L * sizeof(std::int32_t))));
};

template <std::size_t L>
using Vec = typename VecOf<L>::Type;

template <std::size_t L>
[[gnu::always_inline]] inline const typename VecOf<L>::Unaligned &
vecAt(const float *p)
{
    return *reinterpret_cast<const typename VecOf<L>::Unaligned *>(p);
}

template <std::size_t L>
[[gnu::always_inline]] inline typename VecOf<L>::Unaligned &
vecAt(float *p)
{
    return *reinterpret_cast<typename VecOf<L>::Unaligned *>(p);
}

/** Whether any lane of the 8-lane @p mask is set. */
[[gnu::always_inline]] inline bool
anyLane(VecOf<8>::Int mask)
{
    typedef std::int32_t Half
        __attribute__((vector_size(sizeof(mask) / 2)));
    const Half half = __builtin_shufflevector(mask, mask, 0, 1, 2, 3) |
                      __builtin_shufflevector(mask, mask, 4, 5, 6, 7);
    std::uint64_t w[2];
    std::memcpy(w, &half, sizeof(w));
    return (w[0] | w[1]) != 0;
}

/**
 * The next tile of at most J L-lane j-vectors over an n-wide row
 * (n >= L, J >= 2), starting at vector @p v0: writes their column
 * offsets to @p off and returns how many there are. Vectors sit at
 * columns 0, L, 2L, ...; a ragged tail becomes one more full vector
 * ending at column n (overlapping its predecessor), so no lane reads
 * or writes outside the row. The last tile always takes at least two
 * vectors, so an overlapping tail shares a tile with the vector it
 * overlaps: both load the output before either stores it, and both
 * copies of an overlapped lane run identical operations on identical
 * inputs.
 */
template <std::size_t L, std::size_t J>
[[gnu::always_inline]] inline std::size_t
nextVectorTile(std::size_t v0, std::size_t n, std::size_t *off)
{
    const std::size_t left = (n + L - 1) / L - v0;
    const std::size_t nv = left <= J ? left : (left == J + 1 ? J - 1 : J);
    for (std::size_t v = 0; v < nv; v++)
        off[v] = std::min((v0 + v) * L, n - L);
    return nv;
}

/** int32 lanes matching F: std::int32_t for float, the int vector of
 *  the same lane count for Vec<L>. */
template <typename F>
using IntLanes = std::conditional_t<
    std::is_same_v<F, float>, std::int32_t,
    typename VecOf<sizeof(F) / sizeof(float)>::Int>;

/**
 * Branch-free polynomial expf (Cephes-style, ~2e-7 relative error), on
 * a float or lane-wise on a Vec<L>. Every operation — the
 * multiply-add chain, the magic-number round-to-nearest, the integer
 * exponent clamp, and the bit-cast 2^n scale — maps onto baseline
 * SSE2 instructions, so GCC auto-vectorizes the activation sweeps
 * that call the float form, and the vector form gives each lane the
 * float form's bits. libm's expf is branchy and keeps those loops
 * scalar. (A float-domain input clamp would reintroduce control flow
 * GCC refuses to if-convert without -ffast-math, hence the clamp on
 * the integer exponent instead: out-of-range inputs saturate to
 * ~2^-126 / ~2^127 rather than 0/inf, which every consumer — sigmoid,
 * swish, softmax — treats the same. Inputs beyond |x| ~ 5.8e6 would
 * overflow the rounding trick, far outside any finite network
 * pre-activation this code ever sees.)
 */
template <typename F>
[[gnu::always_inline]] inline F
fastExpf(F x)
{
    using I = IntLanes<F>;
    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    constexpr float kRound = 12582912.0f; // 1.5 * 2^23
    constexpr std::int32_t kRoundBits = 0x4B400000;

    // Round x*log2(e) to the nearest integer n without cvt/floor: adding
    // 1.5*2^23 pins the float's exponent so the mantissa's low bits ARE
    // the integer, in round-to-nearest-even mode.
    const F t = x * kLog2e + kRound;
    const F n = t - kRound;
    I i = __builtin_bit_cast(I, t) - kRoundBits;
    const I lo = I{} - 126, hi = I{} + 127;
    i = i < lo ? lo : i;
    i = i > hi ? hi : i;

    // exp(x) = 2^n * exp(r), r = x - n*ln2 in [-ln2/2, ln2/2].
    F r = x - n * kLn2Hi;
    r -= n * kLn2Lo;
    F p = F{} + 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * r * r + r + 1.0f;

    const F scale = __builtin_bit_cast(F, (i + 127) << 23); // 2^n
    return p * scale;
}

/**
 * -x for the sigmoid's exp argument, as 0 - x: a NaN passes through
 * whole, and GCC cannot fold the subtraction into the multiply that
 * consumes it (0 - 0 is +0, not -0), so -O0 and optimized builds, float
 * and vector forms, all agree. (Where the plain negation was folded, a
 * NaN kept its sign; where not, it flipped.) The only other difference
 * from -x, +0 for x = +0, gives fastExpf the same bits. Keeping the NaN
 * whole makes sigmoid(NaN) that same NaN, so swish's x * sigmoid(x) has
 * the same bits whichever operand of the multiply comes first.
 */
template <typename F>
[[gnu::always_inline]] inline F
negate(F x)
{
    return 0.0f - x;
}

template <typename F>
[[gnu::always_inline]] inline F
fastSigmoidf(F x)
{
    return 1.0f / (1.0f + fastExpf(negate(x)));
}

template <typename F>
[[gnu::always_inline]] inline F
fastTanhf(F x)
{
    // tanh(x) = 1 - 2/(e^(2x) + 1); ~2e-7 absolute error.
    return 1.0f - 2.0f / (fastExpf(2.0f * x) + 1.0f);
}

} // namespace sibyl::ml::simd
