#include "ml/matrix.hh"

#include "ml/activations.hh"
#include "ml/kernel_dispatch.hh"
#include "ml/simd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sibyl::ml
{

namespace
{

/**
 * matmulAdd micro-kernel for very narrow outputs (N <= 4, e.g. the
 * 2-action DQN head): the wide-kernel's j-sweeps degenerate to 1-2
 * scalars and pure loop overhead, so instead keep the N output values
 * of each row in register accumulators and stream the reduction
 * dimension contiguously — N independent FMA chains per row.
 */
template <std::size_t N>
inline void
matmulAddNarrow(const float *__restrict adata, const float *__restrict bdata,
                float *__restrict cdata, std::size_t m, std::size_t k)
{
    for (std::size_t i = 0; i < m; i++) {
        const float *arow = adata + i * k;
        float acc[N];
        for (std::size_t j = 0; j < N; j++)
            acc[j] = cdata[i * N + j];
        for (std::size_t kk = 0; kk < k; kk++) {
            const float av = arow[kk];
            const float *brow = bdata + kk * N;
            for (std::size_t j = 0; j < N; j++)
                acc[j] += av * brow[j];
        }
        for (std::size_t j = 0; j < N; j++)
            cdata[i * N + j] = acc[j];
    }
}

// Direct wrappers for the narrow template. Deliberately NOT
// ISA-cloned: the j-dimension is 1-4 scalars, too narrow for wider
// vectors to help, and the AVX2 clone measured *slower* (GCC tries
// to vectorize the streamed reduction with gathers).
void
matmulAddNarrow1(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<1>(a, b, c, m, k);
}
void
matmulAddNarrow2(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<2>(a, b, c, m, k);
}
void
matmulAddNarrow3(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<3>(a, b, c, m, k);
}
void
matmulAddNarrow4(const float *a, const float *b, float *c, std::size_t m,
                 std::size_t k)
{
    matmulAddNarrow<4>(a, b, c, m, k);
}

using simd::kLanes;
using simd::nextVectorTile;
using simd::Vec;
using simd::vecAt;

/**
 * The reduction steps a matmulAdd() tile runs: the eight-groups in
 * [begin, end) (multiples of eight, up to k - k % 8) and, with @p tail,
 * the group of four and the leftover steps after them. The whole
 * product is {0, k - k % 8, true}.
 */
struct KSpan
{
    std::size_t begin;
    std::size_t end;
    bool tail;
};

/**
 * Register tile of matmulAdd() for n >= 5: R output rows (A rows a[i],
 * output rows out[i]) x J L-lane j-vectors, held in registers across
 * the whole reduction. Each element keeps the documented order (see
 * Matrix::matmulAdd): its initial value, one add per k-group of eight
 * (a zero-seeded sequential partial sum), one add per k-group of four,
 * (a0*b0 + a1*b1) + (a2*b2 + a3*b3), then (a0*b0 + a1*b1) + a2*b2 for
 * two or three leftover steps (a2 = 0 and b2 = b1 when two are left)
 * or a*b for one — restricted to the groups of @p span.
 */
template <std::size_t L, std::size_t R, std::size_t J>
[[gnu::always_inline]] inline void
mmaTile(const float *const *a, std::size_t k, KSpan span,
        const float *__restrict b, std::size_t n, float *const *out,
        const std::size_t *off)
{
    using V = Vec<L>;
    V acc[R][J];
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            acc[i][v] = vecAt<L>(out[i] + off[v]);
    for (std::size_t kk = span.begin; kk < span.end; kk += 8) {
        V s[R][J];
        for (std::size_t i = 0; i < R; i++)
            for (std::size_t v = 0; v < J; v++)
                s[i][v] = V{};
        // Rolled: unrolled, GCC 12 hoists every broadcast of the group
        // and spills the accumulators.
#pragma GCC unroll 1
        for (std::size_t u = 0; u < 8; u++) {
            const float *bu = b + (kk + u) * n;
            for (std::size_t v = 0; v < J; v++) {
                const V bv = vecAt<L>(bu + off[v]);
                for (std::size_t i = 0; i < R; i++)
                    s[i][v] += a[i][kk + u] * bv;
            }
        }
        for (std::size_t i = 0; i < R; i++)
            for (std::size_t v = 0; v < J; v++)
                acc[i][v] += s[i][v];
    }
    std::size_t kk = k - k % 8;
    if (span.tail && kk + 4 <= k) {
        const float *b0 = b + kk * n;
        for (std::size_t v = 0; v < J; v++) {
            const V v0 = vecAt<L>(b0 + off[v]);
            const V v1 = vecAt<L>(b0 + n + off[v]);
            const V v2 = vecAt<L>(b0 + 2 * n + off[v]);
            const V v3 = vecAt<L>(b0 + 3 * n + off[v]);
            for (std::size_t i = 0; i < R; i++) {
                const float *ai = a[i] + kk;
                acc[i][v] += (ai[0] * v0 + ai[1] * v1) +
                             (ai[2] * v2 + ai[3] * v3);
            }
        }
        kk += 4;
    }
    if (span.tail && kk + 2 <= k) {
        const bool three = kk + 3 <= k;
        const float *b0 = b + kk * n;
        const float *b2 = three ? b0 + 2 * n : b0 + n;
        for (std::size_t v = 0; v < J; v++) {
            const V v0 = vecAt<L>(b0 + off[v]);
            const V v1 = vecAt<L>(b0 + n + off[v]);
            const V v2 = vecAt<L>(b2 + off[v]);
            for (std::size_t i = 0; i < R; i++) {
                const float *ai = a[i] + kk;
                const float a2 = three ? ai[2] : 0.0f;
                acc[i][v] += (ai[0] * v0 + ai[1] * v1) + a2 * v2;
            }
        }
    } else if (span.tail && kk < k) {
        for (std::size_t v = 0; v < J; v++) {
            const V bv = vecAt<L>(b + kk * n + off[v]);
            for (std::size_t i = 0; i < R; i++)
                acc[i][v] += a[i][kk] * bv;
        }
    }
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            vecAt<L>(out[i] + off[v]) = acc[i][v];
}

/** Run the R-row matmulAdd tile over the @p nv (<= 2) j-vectors at
 *  @p off. */
template <std::size_t L, std::size_t R>
[[gnu::always_inline]] inline void
mmaTileJ(const float *const *a, std::size_t k, KSpan span, const float *b,
         std::size_t n, float *const *out, const std::size_t *off,
         std::size_t nv)
{
    if (nv == 1)
        mmaTile<L, R, 1>(a, k, span, b, n, out, off);
    else
        mmaTile<L, R, 2>(a, k, span, b, n, out, off);
}

/** Output rows per full matmulAdd tile (leftover rows run one at a
 *  time); with at most two j-vectors per tile, this is the shape that
 *  measured fastest at both 8 and 16 lanes. */
constexpr std::size_t kMmaRows = 4;

/** matmulAdd() over L-lane vectors (n >= L) for the @p m rows listed
 *  in @p rows (null: rows 0 .. m-1), restricted to @p span. */
template <std::size_t L>
[[gnu::always_inline]] inline void
mmaWide(const float *__restrict a, const float *__restrict b,
        float *__restrict out, const std::uint32_t *rows, std::size_t m,
        std::size_t k, std::size_t n, KSpan span)
{
    const float *ar[kMmaRows];
    float *orow[kMmaRows];
    const auto tile = [&](std::size_t i, std::size_t t) {
        for (std::size_t j = 0; j < t; j++) {
            const std::size_t r = rows ? rows[i + j] : i + j;
            ar[j] = a + r * k;
            orow[j] = out + r * n;
        }
    };
    std::size_t off[2];
    for (std::size_t v0 = 0, nv = 0; v0 * L < n; v0 += nv) {
        nv = nextVectorTile<L, 2>(v0, n, off);
        std::size_t i = 0;
        for (; i + kMmaRows <= m; i += kMmaRows) {
            tile(i, kMmaRows);
            mmaTileJ<L, kMmaRows>(ar, k, span, b, n, orow, off, nv);
        }
        for (; i < m; i++) {
            tile(i, 1);
            mmaTileJ<L, 1>(ar, k, span, b, n, orow, off, nv);
        }
    }
}

/** matmulAdd() for n >= 5, on the widest vector (native, 8 or 4
 *  lanes) that fits in a row: rows as in mmaWide. */
SIBYL_KERNEL_CLONES
void
matmulAddTiled(const float *__restrict a, const float *__restrict b,
               float *__restrict out, const std::uint32_t *rows,
               std::size_t m, std::size_t k, std::size_t n, KSpan span)
{
    if (n >= kLanes)
        mmaWide<kLanes>(a, b, out, rows, m, k, n, span);
    else if (n >= 8)
        mmaWide<8>(a, b, out, rows, m, k, n, span);
    else
        mmaWide<4>(a, b, out, rows, m, k, n, span);
}

/**
 * General-path tile of transposedMatmulAdd() (n > 8): R output rows x
 * J L-lane j-vectors, held in registers across the whole batch. Each
 * output element sees exactly the historical sequence — its initial
 * value, then one add per r-group of four,
 * (a0*b0 + a1*b1) + (a2*b2 + a3*b3), then one add per leftover row —
 * so the tile only removes the per-group load/store of the output row.
 * Vector v covers columns off[v] .. off[v] + L - 1 (see
 * nextVectorTile).
 */
template <std::size_t L, std::size_t R, std::size_t J>
[[gnu::always_inline]] inline void
tmaTile(const float *__restrict a, std::size_t cols,
        const float *__restrict b, std::size_t n, float *__restrict out,
        const std::size_t *off, std::size_t m, float scale)
{
    using V = Vec<L>;
    V acc[R][J];
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            acc[i][v] = vecAt<L>(out + i * n + off[v]);
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        const float *ar = a + r * cols;
        const float *b0 = b + r * n;
        const float *b1 = b0 + n;
        const float *b2 = b1 + n;
        const float *b3 = b2 + n;
        float a0[R], a1[R], a2[R], a3[R];
        for (std::size_t i = 0; i < R; i++) {
            a0[i] = ar[i] * scale;
            a1[i] = ar[cols + i] * scale;
            a2[i] = ar[2 * cols + i] * scale;
            a3[i] = ar[3 * cols + i] * scale;
        }
        for (std::size_t v = 0; v < J; v++) {
            const V v0 = vecAt<L>(b0 + off[v]);
            const V v1 = vecAt<L>(b1 + off[v]);
            const V v2 = vecAt<L>(b2 + off[v]);
            const V v3 = vecAt<L>(b3 + off[v]);
            for (std::size_t i = 0; i < R; i++)
                acc[i][v] += (a0[i] * v0 + a1[i] * v1) +
                             (a2[i] * v2 + a3[i] * v3);
        }
    }
    for (; r < m; r++) {
        const float *ar = a + r * cols;
        const float *br = b + r * n;
        for (std::size_t v = 0; v < J; v++) {
            const V bv = vecAt<L>(br + off[v]);
            for (std::size_t i = 0; i < R; i++)
                acc[i][v] += (ar[i] * scale) * bv;
        }
    }
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            vecAt<L>(out + i * n + off[v]) = acc[i][v];
}

/** Run the R-row tile over the @p nv (<= 4) j-vectors at @p off. */
template <std::size_t L, std::size_t R>
[[gnu::always_inline]] inline void
tmaTileJ(const float *a, std::size_t cols, const float *b, std::size_t n,
         float *out, const std::size_t *off, std::size_t nv, std::size_t m,
         float scale)
{
    switch (nv) {
      case 1: tmaTile<L, R, 1>(a, cols, b, n, out, off, m, scale); break;
      case 2: tmaTile<L, R, 2>(a, cols, b, n, out, off, m, scale); break;
      case 3: tmaTile<L, R, 3>(a, cols, b, n, out, off, m, scale); break;
      default: tmaTile<L, R, 4>(a, cols, b, n, out, off, m, scale); break;
    }
}

/** transposedMatmulAdd() for n > 8 over L-lane vectors (n >= L): two
 *  output rows x up to four j-vectors per tile, then a one-row tile
 *  for an odd last row. */
template <std::size_t L>
[[gnu::always_inline]] inline void
tmaWide(const float *__restrict adata, const float *__restrict bdata,
        float *__restrict odata, std::size_t m, std::size_t cols,
        std::size_t n, float scale)
{
    std::size_t off[4];
    for (std::size_t v0 = 0, nv = 0; v0 * L < n; v0 += nv) {
        nv = nextVectorTile<L, 4>(v0, n, off);
        std::size_t c = 0;
        for (; c + 2 <= cols; c += 2)
            tmaTileJ<L, 2>(adata + c, cols, bdata, n, odata + c * n, off,
                           nv, m, scale);
        if (c < cols)
            tmaTileJ<L, 1>(adata + c, cols, bdata, n, odata + c * n, off,
                           nv, m, scale);
    }
}

/**
 * transposedMatmulAdd() for n <= 8, N == n: output rows c go across the
 * kLanes lanes (A's row r is contiguous in c) and the N columns j are N
 * vector accumulators. Each element keeps its historical order: a
 * zero-seeded sum over ascending r of (A[r, c] * scale) * B[r, j],
 * added to the output once. A ragged tail of c reuses the last kLanes
 * rows (cols >= kLanes; overlapped lanes are skipped on the way out)
 * or gathers into a zero-padded vector (cols < kLanes).
 */
template <std::size_t N>
[[gnu::always_inline]] inline void
tmaNarrow(const float *__restrict adata, const float *__restrict bdata,
          float *__restrict odata, std::size_t m, std::size_t cols,
          float scale)
{
    using V = Vec<kLanes>;
    for (std::size_t c0 = 0; c0 < cols; c0 += kLanes) {
        const bool full = c0 + kLanes <= cols;
        const std::size_t base =
            full || cols < kLanes ? c0 : cols - kLanes;
        const std::size_t skip = c0 - base;
        const std::size_t lanes = std::min(kLanes, cols - base);
        V acc[N];
        for (std::size_t j = 0; j < N; j++)
            acc[j] = V{};
        for (std::size_t r = 0; r < m; r++) {
            V av;
            if (lanes == kLanes) {
                av = vecAt<kLanes>(adata + r * cols + base);
            } else {
                av = V{};
                for (std::size_t l = 0; l < lanes; l++)
                    av[l] = adata[r * cols + base + l];
            }
            av *= scale;
            const float *br = bdata + r * N;
            for (std::size_t j = 0; j < N; j++)
                acc[j] += av * br[j];
        }
        for (std::size_t l = skip; l < lanes; l++)
            for (std::size_t j = 0; j < N; j++)
                odata[(base + l) * N + j] += acc[j][l];
    }
}

/** transposedMatmulAdd()'s kernels, on the widest vector that fits. */
SIBYL_KERNEL_CLONES
void
transposedMatmulAddTiled(const float *__restrict adata,
                         const float *__restrict bdata,
                         float *__restrict odata, std::size_t m,
                         std::size_t cols, std::size_t n, float scale)
{
    switch (n) {
      case 1: tmaNarrow<1>(adata, bdata, odata, m, cols, scale); break;
      case 2: tmaNarrow<2>(adata, bdata, odata, m, cols, scale); break;
      case 3: tmaNarrow<3>(adata, bdata, odata, m, cols, scale); break;
      case 4: tmaNarrow<4>(adata, bdata, odata, m, cols, scale); break;
      case 5: tmaNarrow<5>(adata, bdata, odata, m, cols, scale); break;
      case 6: tmaNarrow<6>(adata, bdata, odata, m, cols, scale); break;
      case 7: tmaNarrow<7>(adata, bdata, odata, m, cols, scale); break;
      case 8: tmaNarrow<8>(adata, bdata, odata, m, cols, scale); break;
      default:
        if (n >= kLanes)
            tmaWide<kLanes>(adata, bdata, odata, m, cols, n, scale);
        else
            tmaWide<8>(adata, bdata, odata, m, cols, n, scale);
        break;
    }
}

/**
 * The activation of the fused row kernel on J L-lane accumulators:
 * per lane, the bits the activation sweeps (activations.cc) give the
 * same float, through the same fastExpf.
 */
template <std::size_t L, std::size_t J>
[[gnu::always_inline]] inline void
activateTile(Activation act, Vec<L> (&acc)[J])
{
    using V = Vec<L>;
    const V zero = V{};
    switch (act) {
      case Activation::Identity:
        break;
      case Activation::ReLU:
        for (std::size_t v = 0; v < J; v++)
            acc[v] = acc[v] > zero ? acc[v] : zero;
        break;
      case Activation::Sigmoid:
        for (std::size_t v = 0; v < J; v++)
            acc[v] = simd::fastSigmoidf(acc[v]);
        break;
      case Activation::Tanh:
        for (std::size_t v = 0; v < J; v++)
            acc[v] = simd::fastTanhf(acc[v]);
        break;
      case Activation::Swish:
        for (std::size_t v = 0; v < J; v++)
            acc[v] = acc[v] * simd::fastSigmoidf(acc[v]);
        break;
    }
}

/**
 * Fused row tile of denseRow(): J L-lane output vectors at columns
 * off[0..J) held in registers across the whole fan-in, each element a
 * zero-seeded sum of x[k] * W^T[k, j] over ascending k, then + bias,
 * then the activation, stored once (the pre-activation too, when
 * @p pre is set). An overlapping tail vector recomputes its shared
 * lanes with identical operations, so both stores write equal bits.
 */
template <std::size_t L, std::size_t J>
[[gnu::always_inline]] inline void
rowTile(const float *__restrict x, std::size_t k, const float *__restrict w,
        std::size_t n, const float *__restrict bias, Activation act,
        float *__restrict out, float *__restrict pre, const std::size_t *off)
{
    using V = Vec<L>;
    V acc[J];
    for (std::size_t v = 0; v < J; v++)
        acc[v] = V{};
    for (std::size_t kk = 0; kk < k; kk++) {
        const float xk = x[kk];
        const float *wk = w + kk * n;
        for (std::size_t v = 0; v < J; v++)
            acc[v] += xk * vecAt<L>(wk + off[v]);
    }
    for (std::size_t v = 0; v < J; v++)
        acc[v] += vecAt<L>(bias + off[v]);
    if (pre)
        for (std::size_t v = 0; v < J; v++)
            vecAt<L>(pre + off[v]) = acc[v];
    activateTile<L>(act, acc);
    for (std::size_t v = 0; v < J; v++)
        vecAt<L>(out + off[v]) = acc[v];
}

/** rowTile<L, J> for J = @p nv, the tile's vector count
 *  (1 <= nv <= JMax). */
template <std::size_t L, std::size_t JMax, std::size_t J = 1>
[[gnu::always_inline]] inline void
rowTileOf(std::size_t nv, const float *x, std::size_t k, const float *w,
          std::size_t n, const float *bias, Activation act, float *out,
          float *pre, const std::size_t *off)
{
    if constexpr (J < JMax) {
        if (nv > J) {
            rowTileOf<L, JMax, J + 1>(nv, x, k, w, n, bias, act, out, pre,
                                      off);
            return;
        }
    }
    rowTile<L, J>(x, k, w, n, bias, act, out, pre, off);
}

/** denseRow() over L-lane vectors (n >= L), at most JMax (>= 2)
 *  vectors per tile. */
template <std::size_t L, std::size_t JMax>
[[gnu::always_inline]] inline void
rowWide(const float *x, std::size_t k, const float *w, std::size_t n,
        const float *bias, Activation act, float *out, float *pre)
{
    std::size_t off[JMax];
    for (std::size_t v0 = 0, nv = 0; v0 * L < n; v0 += nv) {
        nv = nextVectorTile<L, JMax>(v0, n, off);
        rowTileOf<L, JMax>(nv, x, k, w, n, bias, act, out, pre, off);
    }
}

/** denseRow() for n = N <= 3 (the DQN head): N scalar accumulators in
 *  the same order as the vector tiles, activated in one 4-lane vector. */
template <std::size_t N>
[[gnu::always_inline]] inline void
rowNarrow(const float *__restrict x, std::size_t k, const float *__restrict w,
          const float *__restrict bias, Activation act,
          float *__restrict out, float *__restrict pre)
{
    float acc[N];
    for (std::size_t j = 0; j < N; j++)
        acc[j] = 0.0f;
    for (std::size_t kk = 0; kk < k; kk++) {
        const float xk = x[kk];
        for (std::size_t j = 0; j < N; j++)
            acc[j] += xk * w[kk * N + j];
    }
    Vec<4> y[1] = {};
    for (std::size_t j = 0; j < N; j++) {
        acc[j] += bias[j];
        y[0][j] = acc[j];
    }
    if (pre)
        for (std::size_t j = 0; j < N; j++)
            pre[j] = acc[j];
    activateTile<4>(act, y);
    for (std::size_t j = 0; j < N; j++)
        out[j] = y[0][j];
}

/** denseRow() on the widest vector (native, 8 or 4 lanes) that fits in
 *  the row, or on scalars below four outputs. */
SIBYL_KERNEL_CLONES
void
denseRowTiled(const float *x, std::size_t k, const float *w, std::size_t n,
              const float *bias, Activation act, float *out, float *pre)
{
    // Up to eight native vectors per tile (the 102 C51 outputs are one
    // tile of seven 16-lane vectors); a row narrower than one native
    // vector needs at most two of its 8- or 4-lane vectors.
    if (n >= kLanes)
        rowWide<kLanes, 8>(x, k, w, n, bias, act, out, pre);
    else if (n >= 8)
        rowWide<8, 2>(x, k, w, n, bias, act, out, pre);
    else if (n >= 4)
        rowWide<4, 2>(x, k, w, n, bias, act, out, pre);
    else if (n == 3)
        rowNarrow<3>(x, k, w, bias, act, out, pre);
    else if (n == 2)
        rowNarrow<2>(x, k, w, bias, act, out, pre);
    else if (n == 1)
        rowNarrow<1>(x, k, w, bias, act, out, pre);
}

/** @p x in every lane. */
template <std::size_t L>
[[gnu::always_inline]] inline Vec<L>
splat(float x)
{
    Vec<L> v;
    for (std::size_t l = 0; l < L; l++)
        v[l] = x;
    return v;
}

/**
 * Tile of denseLanes(): A consecutive output columns of one lane group
 * in registers, each an L-lane vector across the group's rows. @p xt
 * holds the group's X^T (k rows of L lanes), @p w the first column's W
 * row (the next columns follow at stride k) and @p bias its bias. Each
 * lane runs the order matmulAdd() gives its element: the bias, then
 * with @p grouped (n >= 5) the eight-groups, the group of four and the
 * leftover steps of mmaTile, else one add per step.
 */
template <std::size_t L, std::size_t A>
[[gnu::always_inline]] inline void
laneTile(const float *__restrict xt, std::size_t k, const float *__restrict w,
         const float *__restrict bias, bool grouped, float *__restrict out)
{
    using V = Vec<L>;
    V acc[A];
    for (std::size_t c = 0; c < A; c++)
        acc[c] = splat<L>(bias[c]);
    std::size_t kk = 0;
    if (!grouped) {
        for (; kk < k; kk++) {
            const V x = vecAt<L>(xt + kk * L);
            for (std::size_t c = 0; c < A; c++)
                acc[c] += x * w[c * k + kk];
        }
    }
    for (; kk + 8 <= k; kk += 8) {
        V s[A];
        for (std::size_t c = 0; c < A; c++)
            s[c] = V{};
        for (std::size_t u = 0; u < 8; u++) {
            const V x = vecAt<L>(xt + (kk + u) * L);
            for (std::size_t c = 0; c < A; c++)
                s[c] += x * w[c * k + kk + u];
        }
        for (std::size_t c = 0; c < A; c++)
            acc[c] += s[c];
    }
    if (kk + 4 <= k) {
        const V x0 = vecAt<L>(xt + kk * L);
        const V x1 = vecAt<L>(xt + (kk + 1) * L);
        const V x2 = vecAt<L>(xt + (kk + 2) * L);
        const V x3 = vecAt<L>(xt + (kk + 3) * L);
        for (std::size_t c = 0; c < A; c++) {
            const float *wc = w + c * k + kk;
            acc[c] += (x0 * wc[0] + x1 * wc[1]) + (x2 * wc[2] + x3 * wc[3]);
        }
        kk += 4;
    }
    if (kk + 2 <= k) {
        const bool three = kk + 3 <= k;
        const V x0 = vecAt<L>(xt + kk * L);
        const V x1 = vecAt<L>(xt + (kk + 1) * L);
        const V x2 = three ? V(vecAt<L>(xt + (kk + 2) * L)) : V{};
        for (std::size_t c = 0; c < A; c++) {
            const float *wc = w + c * k + kk;
            const float w2 = three ? wc[2] : wc[1];
            acc[c] += (x0 * wc[0] + x1 * wc[1]) + x2 * w2;
        }
    } else if (kk < k) {
        const V x = vecAt<L>(xt + kk * L);
        for (std::size_t c = 0; c < A; c++)
            acc[c] += x * w[c * k + kk];
    }
    for (std::size_t c = 0; c < A; c++)
        vecAt<L>(out + c * L) = acc[c];
}

/** Output columns per denseLanes() tile; a ragged last tile overlaps
 *  its predecessor and recomputes the shared columns bit for bit (a
 *  narrower tile's few sum chains measured slower than the overlap). */
constexpr std::size_t kLaneCols = 8;

/** denseLanes(): per group, gather X^T (once for a run of groups on
 *  the same rows), then the group's columns in kLaneCols tiles. */
SIBYL_KERNEL_CLONES
void
denseLanesTiled(const float *x, std::size_t k, const float *w,
                const float *bias, std::size_t width,
                const std::uint32_t *seg, const std::uint32_t *rows,
                std::size_t groups, bool grouped, float *xt, float *out)
{
    constexpr std::size_t L = kSoftmaxLanes;
    constexpr std::size_t A = kLaneCols;
    for (std::size_t g = 0; g < groups; g++) {
        const std::uint32_t *gr = rows + g * L;
        if (g == 0 || !std::equal(gr, gr + L, gr - L))
            for (std::size_t l = 0; l < L; l++)
                for (std::size_t kk = 0; kk < k; kk++)
                    xt[kk * L + l] = x[gr[l] * k + kk];
        const std::size_t c0 = seg[g] * width;
        const float *wg = w + c0 * k;
        const float *bg = bias + c0;
        float *og = out + g * width * L;
        if (width >= A) {
            for (std::size_t i = 0; i < width; i += A) {
                const std::size_t c = std::min(i, width - A);
                laneTile<L, A>(xt, k, wg + c * k, bg + c, grouped,
                               og + c * L);
            }
        } else {
            for (std::size_t i = 0; i < width; i++)
                laneTile<L, 1>(xt, k, wg + i * k, bg + i, grouped,
                               og + i * L);
        }
    }
}

} // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

void
Matrix::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::matmul(const Matrix &b, Matrix &out) const
{
    out.resize(rows_, b.cols_);
    out.fill(0.0f);
    matmulAdd(b, out);
}

void
Matrix::matmulAdd(const Matrix &b, Matrix &out) const
{
    assert(cols_ == b.rows_);
    assert(out.rows_ == rows_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    const std::size_t n = b.cols_;
    switch (n) {
      case 1:
        matmulAddNarrow1(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 2:
        matmulAddNarrow2(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 3:
        matmulAddNarrow3(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      case 4:
        matmulAddNarrow4(data_.data(), b.data_.data(), out.data_.data(),
                         rows_, cols_);
        return;
      default:
        break;
    }
    // Output tiles held in registers across the whole reduction (see
    // mmaTile for the layout and the per-element order it keeps).
    matmulAddTiled(data_.data(), b.data_.data(), out.data_.data(), nullptr,
                   rows_, cols_, n, KSpan{0, cols_ - cols_ % 8, true});
}

void
Matrix::matmulAddRows(const Matrix &b, Matrix &out,
                      const std::uint32_t *rows, std::size_t count,
                      std::size_t kBegin, std::size_t kEnd) const
{
    assert(cols_ == b.rows_);
    assert(out.rows_ == rows_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    assert(b.cols_ >= 5);
    kEnd = std::min(kEnd, cols_);
    if (kBegin >= kEnd || count == 0)
        return;
    const std::size_t k8 = cols_ - cols_ % 8;
    KSpan span{std::min(kBegin / 8 * 8, k8),
               std::min((kEnd + 7) / 8 * 8, k8), kEnd > k8};
    span.end = std::max(span.end, span.begin);
    matmulAddTiled(data_.data(), b.data_.data(), out.data_.data(), rows,
                   count, cols_, b.cols_, span);
}

void
Matrix::denseLanes(const Matrix &x, const float *bias, const LaneGroups &g,
                   float *xt, float *out) const
{
    assert(x.cols_ == cols_);
    denseLanesTiled(x.data_.data(), cols_, data_.data(), bias, g.width,
                    g.seg.data(), g.rows.data(), g.size(), rows_ >= 5, xt,
                    out);
}

void
Matrix::denseRow(const float *x, const float *bias, Activation act,
                 float *out, float *pre) const
{
    denseRowTiled(x, rows_, data_.data(), cols_, bias, act, out, pre);
}

void
Matrix::transposedMatmulAdd(const Matrix &b, Matrix &out, float scale) const
{
    assert(rows_ == b.rows_);
    assert(out.rows_ == cols_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    // out[c, j] += scale * sum_r A[r, c] * B[r, j], with every output
    // tile held in registers across the whole batch (see tmaTile and
    // tmaNarrow for the layouts and the per-element order they keep).
    const std::size_t n = b.cols_;
    if (n == 0 || cols_ == 0)
        return;
    transposedMatmulAddTiled(data_.data(), b.data_.data(), out.data_.data(),
                             rows_, cols_, n, scale);
}

void
Matrix::matvec(const Vector &x, Vector &y) const
{
    assert(x.size() == cols_);
    y.assign(rows_, 0.0f);
    const float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < cols_; c++)
            acc += row[c] * x[c];
        y[r] = acc;
    }
}

void
Matrix::matvecTransposed(const Vector &x, Vector &y) const
{
    assert(x.size() == rows_);
    y.assign(cols_, 0.0f);
    const float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float xv = x[r];
        if (xv == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols_; c++)
            y[c] += row[c] * xv;
    }
}

void
Matrix::addOuter(const Vector &u, const Vector &v, float scale)
{
    assert(u.size() == rows_ && v.size() == cols_);
    float *row = data_.data();
    for (std::size_t r = 0; r < rows_; r++, row += cols_) {
        float uv = u[r] * scale;
        if (uv == 0.0f)
            continue;
        for (std::size_t c = 0; c < cols_; c++)
            row[c] += uv * v[c];
    }
}

void
Matrix::addScaled(const Matrix &b, float scale)
{
    assert(rows_ == b.rows_ && cols_ == b.cols_);
    for (std::size_t i = 0; i < data_.size(); i++)
        data_[i] += scale * b.data_[i];
}

void
axpy(const Vector &x, Vector &y, float scale)
{
    assert(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); i++)
        y[i] += scale * x[i];
}

float
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    float acc = 0.0f;
    for (std::size_t i = 0; i < a.size(); i++)
        acc += a[i] * b[i];
    return acc;
}

float
norm(const Vector &v)
{
    double acc = 0.0;
    for (float x : v)
        acc += static_cast<double>(x) * x;
    return static_cast<float>(std::sqrt(acc));
}

} // namespace sibyl::ml
