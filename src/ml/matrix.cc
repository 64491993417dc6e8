#include "ml/matrix.hh"

#include "ml/kernel_dispatch.hh"

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

/**
 * One output row of the wide matmulAdd kernel: crow[j] += sum_k
 * arow[k] * B(k, j), with the reduction grouped exactly like the
 * blocked kernel below groups it (8-step partial sums, then the
 * 4-step parenthesization, then the 2-3/1 leftovers). Used for the
 * blocked kernel's odd tail row, so *every* row of a batched product
 * carries the same accumulation order bit for bit — which is what
 * makes batched rows independent of batch composition (the property
 * the agents' Bellman-target caches rely on). Historically the tail
 * row summed in plain sequential order, making the last row of an
 * odd batch the one row with a different summation.
 */
SIBYL_KERNEL_CLONES
void
matmulAddRowWide(const float *__restrict arow, const float *__restrict bdata,
                 float *__restrict crow, std::size_t kTot, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 8 <= kTot; k += 8) {
        const float *bk = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++) {
            float s0 = 0.0f;
            for (std::size_t u = 0; u < 8; u++)
                s0 += arow[k + u] * bk[u * n + j];
            crow[j] += s0;
        }
    }
    for (; k + 4 <= kTot; k += 4) {
        const float p0 = arow[k], p1 = arow[k + 1];
        const float p2 = arow[k + 2], p3 = arow[k + 3];
        const float *b0 = bdata + k * n;
        const float *b1 = b0 + n;
        const float *b2 = b1 + n;
        const float *b3 = b2 + n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += (p0 * b0[j] + p1 * b1[j]) + (p2 * b2[j] + p3 * b3[j]);
    }
    if (k + 2 <= kTot) {
        const float p0 = arow[k], p1 = arow[k + 1];
        const bool three = k + 3 <= kTot;
        const float p2 = three ? arow[k + 2] : 0.0f;
        const float *b0 = bdata + k * n;
        const float *b1 = b0 + n;
        const float *b2 = three ? b1 + n : b1;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
    } else if (k < kTot) {
        const float p = arow[k];
        const float *brow = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            crow[j] += p * brow[j];
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

/**
 * Sequential-order row kernel: out[j] += sum_k x[k] * B(k, j), with
 * each output element accumulated in plain ascending-k order — the
 * exact per-element order of Matrix::matvec() against B^T. SIMD runs
 * ACROSS the independent output elements (j), never across k, so
 * vector width cannot change a bit. This is the decision-path matvec:
 * bit-compatible with the historical per-sample forward that the
 * golden RL trajectories are pinned to, but j-vectorized instead of
 * dot-product-serial.
 */
SIBYL_KERNEL_CLONES
void
seqMulAddRow(const float *__restrict x, const float *__restrict bdata,
             float *__restrict out, std::size_t kTot, std::size_t n)
{
    for (std::size_t k = 0; k < kTot; k++) {
        const float xv = x[k];
        const float *brow = bdata + k * n;
#pragma GCC ivdep
        for (std::size_t j = 0; j < n; j++)
            out[j] += xv * brow[j];
    }
}

/** Blocked wide-kernel body of matmulAdd() (see member for the
 *  blocking rationale). Free function so it can be ISA-cloned. */
SIBYL_KERNEL_CLONES
void
matmulAddWide(const float *__restrict adata, const float *__restrict bdata,
              float *__restrict cdata, std::size_t rows, std::size_t kTot,
              std::size_t n)
{
    std::size_t i = 0;
    // 4-row block: one B-stream feeds four output rows, halving the
    // B-side load traffic of the 2-row block below. Each row keeps
    // its own accumulators and the identical k-grouping, so blocking
    // width is invisible in the results (rows are independent).
    for (; i + 4 <= rows; i += 4) {
        const float *a0r = adata + i * kTot;
        const float *a1r = a0r + kTot;
        const float *a2r = a1r + kTot;
        const float *a3r = a2r + kTot;
        float *c0 = cdata + i * n;
        float *c1 = c0 + n;
        float *c2 = c1 + n;
        float *c3 = c2 + n;
        std::size_t k = 0;
        for (; k + 8 <= kTot; k += 8) {
            const float *bk = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
                for (std::size_t u = 0; u < 8; u++) {
                    const float bv = bk[u * n + j];
                    s0 += a0r[k + u] * bv;
                    s1 += a1r[k + u] * bv;
                    s2 += a2r[k + u] * bv;
                    s3 += a3r[k + u] * bv;
                }
                c0[j] += s0;
                c1[j] += s1;
                c2[j] += s2;
                c3[j] += s3;
            }
        }
        for (; k + 4 <= kTot; k += 4) {
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = b1 + n;
            const float *b3 = b2 + n;
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float p2 = a0r[k + 2], p3 = a0r[k + 3];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float q2 = a1r[k + 2], q3 = a1r[k + 3];
            const float r0 = a2r[k], r1 = a2r[k + 1];
            const float r2 = a2r[k + 2], r3 = a2r[k + 3];
            const float t0 = a3r[k], t1 = a3r[k + 1];
            const float t2 = a3r[k + 2], t3 = a3r[k + 3];
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) +
                         (p2 * b2[j] + p3 * b3[j]);
                c1[j] += (q0 * b0[j] + q1 * b1[j]) +
                         (q2 * b2[j] + q3 * b3[j]);
                c2[j] += (r0 * b0[j] + r1 * b1[j]) +
                         (r2 * b2[j] + r3 * b3[j]);
                c3[j] += (t0 * b0[j] + t1 * b1[j]) +
                         (t2 * b2[j] + t3 * b3[j]);
            }
        }
        if (k + 2 <= kTot) {
            const bool three = k + 3 <= kTot;
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = three ? b1 + n : b1;
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float r0 = a2r[k], r1 = a2r[k + 1];
            const float t0 = a3r[k], t1 = a3r[k + 1];
            const float p2 = three ? a0r[k + 2] : 0.0f;
            const float q2 = three ? a1r[k + 2] : 0.0f;
            const float r2 = three ? a2r[k + 2] : 0.0f;
            const float t2 = three ? a3r[k + 2] : 0.0f;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
                c1[j] += (q0 * b0[j] + q1 * b1[j]) + q2 * b2[j];
                c2[j] += (r0 * b0[j] + r1 * b1[j]) + r2 * b2[j];
                c3[j] += (t0 * b0[j] + t1 * b1[j]) + t2 * b2[j];
            }
        } else if (k < kTot) {
            const float p = a0r[k], q = a1r[k];
            const float r = a2r[k], t = a3r[k];
            const float *brow = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += p * brow[j];
                c1[j] += q * brow[j];
                c2[j] += r * brow[j];
                c3[j] += t * brow[j];
            }
        }
    }
    for (; i + 2 <= rows; i += 2) {
        const float *a0r = adata + i * kTot;
        const float *a1r = a0r + kTot;
        float *c0 = cdata + i * n;
        float *c1 = c0 + n;
        std::size_t k = 0;
        for (; k + 8 <= kTot; k += 8) {
            const float *bk = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                float s0 = 0.0f, s1 = 0.0f;
                for (std::size_t u = 0; u < 8; u++) {
                    s0 += a0r[k + u] * bk[u * n + j];
                    s1 += a1r[k + u] * bk[u * n + j];
                }
                c0[j] += s0;
                c1[j] += s1;
            }
        }
        for (; k + 4 <= kTot; k += 4) {
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float p2 = a0r[k + 2], p3 = a0r[k + 3];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const float q2 = a1r[k + 2], q3 = a1r[k + 3];
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = b1 + n;
            const float *b3 = b2 + n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) +
                         (p2 * b2[j] + p3 * b3[j]);
                c1[j] += (q0 * b0[j] + q1 * b1[j]) +
                         (q2 * b2[j] + q3 * b3[j]);
            }
        }
        if (k + 2 <= kTot) {
            // Merge the 2-3 leftover reduction steps into one sweep.
            const float p0 = a0r[k], p1 = a0r[k + 1];
            const float q0 = a1r[k], q1 = a1r[k + 1];
            const bool three = k + 3 <= kTot;
            const float p2 = three ? a0r[k + 2] : 0.0f;
            const float q2 = three ? a1r[k + 2] : 0.0f;
            const float *b0 = bdata + k * n;
            const float *b1 = b0 + n;
            const float *b2 = three ? b1 + n : b1;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += (p0 * b0[j] + p1 * b1[j]) + p2 * b2[j];
                c1[j] += (q0 * b0[j] + q1 * b1[j]) + q2 * b2[j];
            }
            k = kTot;
        } else if (k < kTot) {
            const float p = a0r[k], q = a1r[k];
            const float *brow = bdata + k * n;
#pragma GCC ivdep
            for (std::size_t j = 0; j < n; j++) {
                c0[j] += p * brow[j];
                c1[j] += q * brow[j];
            }
        }
    }
    // Odd tail row: the shared row kernel, so its accumulation
    // grouping matches the paired rows above (previously this tail
    // used a plain sequential-k sweep, making the last row of an odd
    // batch the one row with a different summation order).
    if (i < rows)
        matmulAddRowWide(adata + i * kTot, bdata, cdata + i * n, kTot, n);
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
    // Register-blocked micro-kernel tuned for this codebase's small
    // operands (fan-in 6..128, fan-out 2..102): 2 output rows x 4
    // reduction steps per j-sweep, so each contiguous j-inner loop
    // entry retires 8 FMA streams. Flat __restrict base pointers plus
    // ivdep drop the runtime alias versioning GCC would otherwise
    // re-check on every j-loop entry — that versioning, not the math,
    // dominated the original one-row-at-a-time kernel.
    matmulAddWide(data_.data(), b.data_.data(), out.data_.data(), rows_,
                  cols_, n);
}

void
Matrix::mulAddRow(const float *x, float *out) const
{
    seqMulAddRow(x, data_.data(), out, rows_, cols_);
}

void
Matrix::matmulTransposed(const Matrix &b, Matrix &out) const
{
    assert(cols_ == b.cols_);
    assert(&out != this && &out != &b);
    out.resize(rows_, b.rows_);
    const std::size_t k = cols_;
    // Each output element is a dot product over the shared contiguous
    // dimension. A bank of independent accumulators maps onto vector
    // lanes without needing relaxed float semantics.
    constexpr std::size_t kLanes = 8;
    for (std::size_t i = 0; i < rows_; i++) {
        const float *arow = row(i);
        float *crow = out.row(i);
        for (std::size_t j = 0; j < b.rows_; j++) {
            const float *brow = b.row(j);
            float acc[kLanes] = {};
            std::size_t kk = 0;
            for (; kk + kLanes <= k; kk += kLanes)
                for (std::size_t u = 0; u < kLanes; u++)
                    acc[u] += arow[kk + u] * brow[kk + u];
            float tail = 0.0f;
            for (; kk < k; kk++)
                tail += arow[kk] * brow[kk];
            crow[j] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                      ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail;
        }
    }
}

namespace
{

// Eight-lane float vector (GCC vector extension). Lane-wise IEEE
// arithmetic, so an operation on a vector gives each lane exactly the
// bits the scalar operation would; baseline x86-64 lowers it to SSE
// pairs, AVX2 clones and -march=native builds to one ymm op. Loads and
// stores go through the unaligned, aliasing twin.
typedef float Vec8 __attribute__((vector_size(8 * sizeof(float))));
typedef float Vec8u __attribute__((vector_size(8 * sizeof(float)),
                                   aligned(alignof(float)), may_alias));
constexpr std::size_t kLanes8 = 8;

inline const Vec8u &
vec8At(const float *p)
{
    return *reinterpret_cast<const Vec8u *>(p);
}

inline Vec8u &
vec8At(float *p)
{
    return *reinterpret_cast<Vec8u *>(p);
}

/**
 * General-path tile of transposedMatmulAdd() (n > 8): R output rows x
 * J eight-lane j-vectors, held in registers across the whole batch.
 * Each output element sees exactly the historical sequence — its
 * initial value, then one add per r-group of four,
 * (a0*b0 + a1*b1) + (a2*b2 + a3*b3), then one add per leftover row —
 * so the tile only removes the per-group load/store of the output row.
 * Vector v covers columns off[v] .. off[v] + 7; a tail vector may
 * overlap its predecessor (see tmaWide), which is exact because both
 * copies of an overlapped lane run identical operations on identical
 * inputs.
 */
template <std::size_t R, std::size_t J>
[[gnu::always_inline]] inline void
tmaTile(const float *__restrict a, std::size_t cols,
        const float *__restrict b, std::size_t n, float *__restrict out,
        const std::size_t *off, std::size_t m, float scale)
{
    Vec8 acc[R][J];
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            acc[i][v] = vec8At(out + i * n + off[v]);
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
            const Vec8 v0 = vec8At(b0 + off[v]);
            const Vec8 v1 = vec8At(b1 + off[v]);
            const Vec8 v2 = vec8At(b2 + off[v]);
            const Vec8 v3 = vec8At(b3 + off[v]);
            for (std::size_t i = 0; i < R; i++)
                acc[i][v] += (a0[i] * v0 + a1[i] * v1) +
                             (a2[i] * v2 + a3[i] * v3);
        }
    }
    for (; r < m; r++) {
        const float *ar = a + r * cols;
        const float *br = b + r * n;
        for (std::size_t v = 0; v < J; v++) {
            const Vec8 bv = vec8At(br + off[v]);
            for (std::size_t i = 0; i < R; i++)
                acc[i][v] += (ar[i] * scale) * bv;
        }
    }
    for (std::size_t i = 0; i < R; i++)
        for (std::size_t v = 0; v < J; v++)
            vec8At(out + i * n + off[v]) = acc[i][v];
}

/** Run the R-row tile over the J (<= 4) j-vectors at @p off. */
template <std::size_t R>
[[gnu::always_inline]] inline void
tmaTileJ(const float *a, std::size_t cols, const float *b, std::size_t n,
         float *out, const std::size_t *off, std::size_t nv, std::size_t m,
         float scale)
{
    switch (nv) {
      case 1: tmaTile<R, 1>(a, cols, b, n, out, off, m, scale); break;
      case 2: tmaTile<R, 2>(a, cols, b, n, out, off, m, scale); break;
      case 3: tmaTile<R, 3>(a, cols, b, n, out, off, m, scale); break;
      default: tmaTile<R, 4>(a, cols, b, n, out, off, m, scale); break;
    }
}

/**
 * transposedMatmulAdd() for n > 8. The n columns split into eight-lane
 * vectors at 0, 8, 16, ...; a ragged tail becomes one more full vector
 * ending at column n (overlapping its predecessor), so no lane reads
 * or writes outside the row. Vectors go to tiles four at a time, and
 * the last tile always takes at least two, so an overlapping tail
 * shares a tile with the vector it overlaps: both load the output
 * before either stores it.
 */
SIBYL_KERNEL_CLONES
void
tmaWide(const float *__restrict adata, const float *__restrict bdata,
        float *__restrict odata, std::size_t m, std::size_t cols,
        std::size_t n, float scale)
{
    const std::size_t nvec = (n + kLanes8 - 1) / kLanes8;
    for (std::size_t v0 = 0; v0 < nvec;) {
        const std::size_t left = nvec - v0;
        const std::size_t nv = left <= 4 ? left : (left == 5 ? 3 : 4);
        std::size_t off[4];
        for (std::size_t v = 0; v < nv; v++)
            off[v] = std::min((v0 + v) * kLanes8, n - kLanes8);
        std::size_t c = 0;
        for (; c + 2 <= cols; c += 2)
            tmaTileJ<2>(adata + c, cols, bdata, n, odata + c * n, off, nv,
                        m, scale);
        if (c < cols)
            tmaTileJ<1>(adata + c, cols, bdata, n, odata + c * n, off, nv,
                        m, scale);
        v0 += nv;
    }
}

/**
 * transposedMatmulAdd() for n <= 8, N == n: output rows c go across the
 * eight lanes (A's row r is contiguous in c) and the N columns j are N
 * vector accumulators. Each element keeps its historical order: a
 * zero-seeded sum over ascending r of (A[r, c] * scale) * B[r, j],
 * added to the output once. A ragged tail of c reuses the last eight
 * rows (cols >= 8; overlapped lanes are skipped on the way out) or
 * gathers into a zero-padded vector (cols < 8).
 */
template <std::size_t N>
[[gnu::always_inline]] inline void
tmaNarrow(const float *__restrict adata, const float *__restrict bdata,
          float *__restrict odata, std::size_t m, std::size_t cols,
          float scale)
{
    for (std::size_t c0 = 0; c0 < cols; c0 += kLanes8) {
        const bool full = c0 + kLanes8 <= cols;
        const std::size_t base =
            full || cols < kLanes8 ? c0 : cols - kLanes8;
        const std::size_t skip = c0 - base;
        const std::size_t lanes = std::min(kLanes8, cols - base);
        Vec8 acc[N];
        for (std::size_t j = 0; j < N; j++)
            acc[j] = Vec8{};
        for (std::size_t r = 0; r < m; r++) {
            Vec8 av;
            if (lanes == kLanes8) {
                av = vec8At(adata + r * cols + base);
            } else {
                av = Vec8{};
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

SIBYL_KERNEL_CLONES
void
tmaNarrowN(const float *__restrict adata, const float *__restrict bdata,
           float *__restrict odata, std::size_t m, std::size_t cols,
           std::size_t n, float scale)
{
    switch (n) {
      case 1: tmaNarrow<1>(adata, bdata, odata, m, cols, scale); break;
      case 2: tmaNarrow<2>(adata, bdata, odata, m, cols, scale); break;
      case 3: tmaNarrow<3>(adata, bdata, odata, m, cols, scale); break;
      case 4: tmaNarrow<4>(adata, bdata, odata, m, cols, scale); break;
      case 5: tmaNarrow<5>(adata, bdata, odata, m, cols, scale); break;
      case 6: tmaNarrow<6>(adata, bdata, odata, m, cols, scale); break;
      case 7: tmaNarrow<7>(adata, bdata, odata, m, cols, scale); break;
      default: tmaNarrow<8>(adata, bdata, odata, m, cols, scale); break;
    }
}

} // namespace

void
Matrix::transposedMatmulAdd(const Matrix &b, Matrix &out, float scale) const
{
    assert(rows_ == b.rows_);
    assert(out.rows_ == cols_ && out.cols_ == b.cols_);
    assert(&out != this && &out != &b);
    // out[c, j] += scale * sum_r A[r, c] * B[r, j], with every output
    // tile held in registers across the whole batch (see tmaWide and
    // tmaNarrow for the layouts and the per-element order they keep).
    const std::size_t n = b.cols_;
    if (n == 0 || cols_ == 0)
        return;
    if (n <= kLanes8)
        tmaNarrowN(data_.data(), b.data_.data(), out.data_.data(), rows_,
                   cols_, n, scale);
    else
        tmaWide(data_.data(), b.data_.data(), out.data_.data(), rows_,
                cols_, n, scale);
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

float
Matrix::norm() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(acc));
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
