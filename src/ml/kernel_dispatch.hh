/**
 * @file
 * Runtime ISA dispatch macro for the ML kernels (internal).
 *
 * Portable builds (SIBYL_NATIVE=OFF — the CI configuration) are
 * compiled for baseline x86-64, which caps every j-inner sweep at 4
 * SSE lanes; an AVX2 clone of the same source doubles the lane count
 * on the machines CI actually runs on, resolved once at load time.
 *
 * This is safe for bit-exactness because SIMD lanes only ever hold
 * independent outputs, each accumulated in a fixed order: vector
 * width changes how many outputs advance together, never the order of
 * operations within one. That covers every lane layout in use — output
 * columns across lanes (the matmulAdd register tile, the wide
 * weight-gradient tile, the fused row tile of Matrix::denseRow with its
 * bias and activation), output rows across lanes (the narrow
 * weight-gradient tile, the training-side softmaxLanes, the C51 target
 * projection, CategoricalSupport::projectLanes), (row, action)
 * predictions across lanes (the C51 training output layer,
 * Matrix::denseLanes: each lane one prediction's outputs in
 * matmulAdd's order, written lane-major straight into the layout the
 * training-side softmaxLanes reads), actions across lanes (the C51
 * decision decode's softmaxLanes and expectation, two actions at a
 * time), and elements across lanes (logSpan, eight per vector, its
 * double arithmetic and table lookup on whatever vector registers the
 * target has). The same argument fixes the lane count of the register
 * tiles (simd.hh's kLanes) and of the training-side lane groups
 * (kSoftmaxLanes): one native vector of the compile target, 16 when it
 * has AVX-512F and 8 otherwise (portable builds and their AVX2
 * clones); a row narrower than one vector runs on 8 or 4 lanes
 * instead. The explicit GCC vector types some kernels use are lane-wise IEEE
 * operations too, lowered to SSE pairs on baseline x86-64. And
 * target("avx2") does not enable FMA contraction (the clone has no
 * instruction that could fuse; the whole repo additionally builds with
 * -ffp-contract=off). Builds that already target AVX2+ (-march=native)
 * skip the clones entirely; CI checks that native and portable builds
 * produce byte-identical campaign output.
 *
 * Every kernel translation unit must use this one definition: the
 * predicate encodes the bit-exactness safety argument, and two copies
 * drifting apart (e.g. one gaining an avx512 clone) would let matrix
 * kernels and activation sweeps dispatch under different rules.
 */

#pragma once

// ThreadSanitizer builds take the baseline kernels only: the
// target_clones IFUNC resolvers run during relocation, before the TSan
// runtime is initialised, and the instrumented resolvers crash every
// binary at startup. The clones compute the same bits (the
// native-vs-portable identity check pins that), so nothing is lost.
#if defined(__x86_64__) && !defined(__AVX2__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define SIBYL_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SIBYL_KERNEL_CLONES
#endif
