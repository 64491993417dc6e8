/**
 * @file
 * Small dense linear-algebra kernels for the ML substrate.
 *
 * The networks in this project are tiny (Sibyl's is 6-20-30-|A|x51), so we
 * favor a simple, cache-friendly row-major matrix with hand-rolled loops
 * over an external BLAS. Everything is float32; the paper stores weights
 * in fp16 for its overhead accounting, which we reproduce analytically in
 * the overhead bench.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sibyl::ml
{

using Vector = std::vector<float>;

enum class Activation; // ml/activations.hh

/**
 * A batch's (row, segment) pairs in lane groups, for a dense layer
 * whose outputs split into segments of @p width consecutive columns
 * (C51: one segment per action, atoms wide). Group g holds
 * kSoftmaxLanes (activations.hh) pairs of segment seg[g]: lane l takes
 * input row rows[g * kSoftmaxLanes + l]; lanes past a group's last pair
 * repeat one of its rows. Matrix::denseLanes writes group g's slice
 * lane-major: column i of lane l goes to
 * out[(g * width + i) * kSoftmaxLanes + l], the layout
 * ml::softmaxLanes reads.
 */
struct LaneGroups
{
    std::size_t width = 0;
    std::vector<std::uint32_t> seg;
    std::vector<std::uint32_t> rows;

    std::size_t size() const { return seg.size(); }
};

/** Row-major dense matrix of float32. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    float operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Set every element to @p v. */
    void fill(float v);

    /**
     * Reshape to rows x cols, preserving nothing. Reuses the existing
     * allocation when capacity suffices, so per-batch reshaping in the
     * training hot loop is allocation-free at steady state.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Reserve room for rows x cols without changing the shape, so
     *  later resize() calls up to that size never allocate. */
    void reserve(std::size_t rows, std::size_t cols)
    {
        data_.reserve(rows * cols);
    }

    /** Pointer to the start of row @p r. */
    float *row(std::size_t r) { return data_.data() + r * cols_; }
    const float *row(std::size_t r) const { return data_.data() + r * cols_; }

    /**
     * out = A * B. Requires cols == b.rows. Zero-fills @p out, then
     * runs matmulAdd(). @p out must not alias A or B.
     */
    void matmul(const Matrix &b, Matrix &out) const;

    /**
     * out += A * B: accumulates into the caller-initialized @p out
     * (already sized rows x b.cols), which lets the dense-layer forward
     * seed the output with the broadcast bias and skip both the zero
     * fill and a separate bias sweep. @p out must not alias A or B.
     *
     * Each output element has one documented operation order, which
     * the memcmp tests pin. With n = b.cols <= 4: the element's initial
     * value, then one add of A[i, k] * B[k, j] per ascending k. With
     * n >= 5: the initial value, then one add per k-group of eight,
     * each group a zero-seeded sequential sum of its eight products;
     * then one add per k-group of four,
     * (a0*b0 + a1*b1) + (a2*b2 + a3*b3); then, for two or three
     * leftover steps, one add of (a0*b0 + a1*b1) + a2*b2, where two
     * steps use a2 = 0 and b2 = b1 (so an infinite or NaN b1 makes the
     * term NaN); or, for one leftover step, one add of a*b. When
     * n >= 5 the kernel holds output tiles in registers across the
     * whole reduction (four rows, then single rows, x up to four
     * native-width column vectors); the tiling never changes an
     * element's order, so every row of a batch is summed alike and a
     * row's result does not depend on the batch it came in (the
     * agents' Bellman-target caches rely on this).
     */
    void matmulAdd(const Matrix &b, Matrix &out) const;

    /**
     * matmulAdd() for the @p count rows listed in @p rows only, and
     * only its reduction groups that overlap k in [kBegin, kEnd): the
     * eight-groups, the group of four, and the leftover steps as one
     * group, each added in matmulAdd's order (n = b.cols >= 5).
     * Skipping a group leaves an element exactly as matmulAdd() would
     * when A's entries in that group are zero, B's are finite and the
     * element is not -0 (a +-0 term then adds nothing). Rows may come
     * in any order; each row's elements do not depend on the others.
     */
    void matmulAddRows(const Matrix &b, Matrix &out,
                       const std::uint32_t *rows, std::size_t count,
                       std::size_t kBegin, std::size_t kEnd) const;

    /**
     * out += scale * A^T * B. Requires rows == b.rows and
     * out.rows == cols, out.cols == b.cols. This is the batched weight-
     * gradient kernel: delta^T (out x batch) times inputs (batch x in)
     * accumulated into gradW. @p out must not alias A or B.
     *
     * Each output element has one documented operation order, which
     * the memcmp tests pin. With n = b.cols > 8: the element's initial
     * value, then one add per r-group of four,
     * (a0*b0 + a1*b1) + (a2*b2 + a3*b3) with a_i = A[r+i, c] * scale,
     * then one add of (A[r, c] * scale) * B[r, j] per leftover row.
     * With n <= 8: a zero-seeded sum over ascending r of
     * (A[r, c] * scale) * B[r, j], added to the element once. The
     * kernel holds output tiles in registers across the batch (two
     * rows x up to four native-width column vectors when n > 8, one
     * native vector of rows across the lanes when n <= 8); the tiling
     * never changes an element's order.
     */
    void transposedMatmulAdd(const Matrix &b, Matrix &out,
                             float scale) const;

    /**
     * Lane-major slices of bias + X * W^T, with this matrix as W
     * (outputs x fan-in k) and @p x as X (batch x k): for every group
     * of @p g, out[(grp * width + i) * kSoftmaxLanes + l] gets output
     * column seg * width + i of row rows[grp * kSoftmaxLanes + l]
     * (see LaneGroups), with the bits the dense forward gives it —
     * the bias, then the products W[j, k] * X[r, k] (= X[r, k] *
     * W^T[k, j] exactly) in matmulAdd()'s order for an
     * outputs-column product. Lanes hold pairs and the vector loop
     * runs over atoms, so no element's order depends on the lanes.
     *
     * @param xt  k * kSoftmaxLanes floats of scratch (one group's X^T).
     */
    void denseLanes(const Matrix &x, const float *bias,
                    const LaneGroups &g, float *xt, float *out) const;

    /**
     * Fused single-row dense step against this matrix as W^T (rows =
     * fan-in k, cols = outputs n): out[j] = f(s_j + bias[j]) for j in
     * [0, n), where s_j is a zero-seeded sum of x[k] * A[k, j] over
     * ascending k. Each output element has exactly this order — the
     * sum, then one add of the bias (never a bias-seeded sum), then
     * the activation f — which is the per-sample order the golden RL
     * trajectories are pinned to, and deliberately NOT the k-grouped
     * order of the batched matmulAdd(). The kernel holds the outputs
     * in registers across the whole reduction (native-width vectors,
     * 8 or 4 lanes on narrower rows, scalars below four outputs) and
     * applies the bias and the activation there, so every output is
     * stored once; the layout never changes an element's order. With
     * @p pre set, the pre-activation s_j + bias[j] is stored there too.
     *
     * @param x    rows() floats.
     * @param bias cols() floats.
     * @param out  cols() floats; must not alias @p x, @p bias or @p pre.
     * @param pre  cols() floats, or null.
     */
    void denseRow(const float *x, const float *bias, Activation act,
                  float *out, float *pre = nullptr) const;

    /** y = A * x. Requires x.size() == cols. */
    void matvec(const Vector &x, Vector &y) const;

    /** y = A^T * x. Requires x.size() == rows. */
    void matvecTransposed(const Vector &x, Vector &y) const;

    /** A += scale * outer(u, v), with u.size()==rows, v.size()==cols. */
    void addOuter(const Vector &u, const Vector &v, float scale);

    /** A += scale * B (element-wise). */
    void addScaled(const Matrix &b, float scale);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** y += scale * x (element-wise). */
void axpy(const Vector &x, Vector &y, float scale);

/** Dot product. */
float dot(const Vector &a, const Vector &b);

/** L2 norm. */
float norm(const Vector &v);

} // namespace sibyl::ml
