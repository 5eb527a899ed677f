//! Matrix multiplication: one packed, register-tiled GEMM core.
//!
//! Three layouts cover the whole training stack: for a linear layer
//! `Y = X·Wᵀ` the forward pass is [`matmul_nt`], the data-gradient pass
//! `dX = dY·W` is [`matmul_nn`], and the weight-gradient pass `dW = dYᵀ·X`
//! is [`matmul_tn`]. Each is a thin adapter that describes its operands as
//! strided views and calls the one core, so no transposed copy is ever
//! materialised. All of them *accumulate* into `c` (`C += A·B`), which is
//! what backward passes want (gradient accumulation across microbatches).
//!
//! The core walks `k` in blocks of `KC`; per block it packs one
//! `KC × NR` panel of `B` into a stack buffer and sweeps `MR × NR` tiles of
//! `C` down it, reading `A` in place. Arithmetic contract: every element of
//! `C` accumulates `acc = fma(a_p, b_p, acc)` from zero over one `k` block,
//! in ascending `p`, then does `c += acc`. A fused multiply-add is exactly
//! rounded on every ISA, so the AVX2 kernel, the portable `mul_add` kernel,
//! the parallel and sequential paths, and the three layouts on transposed
//! operands all produce the same bits.
//!
//! Parallelism: `C` is split into one band of whole `MR`-row tiles per pool
//! thread; every element of `C` has exactly one writer.

use std::sync::OnceLock;

use super::par::RawMut;

/// Below this many flops a multiply stays sequential.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Depth of one `k` block: one packed `B` panel is `KC × NR` f32 (16 KiB).
const KC: usize = 256;
/// Rows of `C` per micro-kernel tile.
const MR: usize = 6;
/// Columns of `C` per micro-kernel tile (two 8-lane f32 vectors).
const NR: usize = 16;

/// Accumulator lanes of [`dot`]. Eight f32 lanes fill one AVX2 register and
/// give the compiler a reduction it can keep entirely in SIMD.
const DOT_LANES: usize = 8;

/// Dot product of two equal-length rows with a **fixed** 8-lane
/// accumulation order.
///
/// A plain `acc += x * y` loop cannot be vectorised by the compiler (float
/// addition is not reassociative), which leaves every dot-product-shaped
/// kernel — attention scores and their gradients — scalar-bound. Splitting
/// the accumulation into eight independent lanes that are reduced in a
/// fixed tree at the end is still a deterministic order (the same on every
/// run and every thread count), just one the compiler can map onto SIMD
/// lanes.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    let a8 = a.chunks_exact(DOT_LANES);
    let b8 = b.chunks_exact(DOT_LANES);
    let (ra, rb) = (a8.remainder(), b8.remainder());
    for (ca, cb) in a8.zip(b8) {
        for l in 0..DOT_LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    let lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (lo + hi) + tail
}

/// `C[m,n] += A[m,k] · B[k,n]` (both operands row-major, untransposed).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_nn(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_lens(c, a, b, m, k, n);
    gemm(selected().1, c, View::rows(a, k), View::rows(b, n), m, k, n);
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` — `B` is stored row-major as `[n, k]`.
///
/// This is the forward shape for `Y = X·Wᵀ` with PyTorch-style `W: [out, in]`.
pub fn matmul_nt(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_lens(c, a, b, m, k, n);
    gemm(selected().1, c, View::rows(a, k), View::cols(b, k), m, k, n);
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]` — `A` is stored row-major as `[k, m]`.
///
/// This is the weight-gradient shape `dW = dYᵀ·X` (with `dY: [k, m]`,
/// `X: [k, n]`): exactly the *W pass* of zero-bubble schedules.
pub fn matmul_tn(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_lens(c, a, b, m, k, n);
    gemm(selected().1, c, View::cols(a, m), View::rows(b, n), m, k, n);
}

/// Reference (naive triple-loop) multiply, used by tests and benches as the
/// ground truth: `C[m,n] += A[m,k]·B[k,n]`.
pub fn matmul_naive(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

/// Name of the micro-kernel this host dispatches to: `"avx2+fma"` or
/// `"portable"`. Both produce the same bits; only the speed differs.
pub fn gemm_kernel_name() -> &'static str {
    selected().0
}

fn check_lens(c: &[f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
}

/// Read-only strided matrix: element `(r, s)` is `data[r * rs + s * cs]`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// Row-major storage with leading dimension `ld`.
    fn rows(data: &'a [f32], ld: usize) -> Self {
        View {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// The transpose of row-major storage with leading dimension `ld`.
    fn cols(data: &'a [f32], ld: usize) -> Self {
        View {
            data,
            rs: 1,
            cs: ld,
        }
    }
}

/// Base pointers of a tile's `MR` rows of `A`.
type Rows = [*const f32; MR];
/// One packed `KC × NR` panel of `B`, row-major.
type Panel = [f32; KC * NR];
/// One `MR × NR` tile of results, row-major.
type Tile = [f32; MR * NR];

/// Computes one tile over `kc ≤ KC` steps from zero into `out`:
/// `out[i][j] = Σ_p fma(a[i][p·a_cs], b[p][j])`, ascending `p`.
///
/// # Safety
/// `a[i].add(p * a_cs)` must be readable for every `i < MR`, `p < kc`, and
/// the host must support the kernel's ISA; [`selected`] only picks one it
/// does.
type MicroKernel = unsafe fn(usize, &Rows, usize, &Panel, &mut Tile);

/// The host's micro-kernel, chosen once per process.
fn selected() -> (&'static str, MicroKernel) {
    static SELECTED: OnceLock<(&'static str, MicroKernel)> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return ("avx2+fma", micro_avx2 as MicroKernel);
        }
        ("portable", micro_portable as MicroKernel)
    })
}

/// `C[m,n] += A·B` over strided views, in the fused order of the module
/// contract.
fn gemm(kern: MicroKernel, c: &mut [f32], a: View, b: View, m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // The micro-kernel reads A unchecked; this bounds every read.
    assert!((m - 1) * a.rs + (k - 1) * a.cs < a.data.len(), "A view");
    let band = |c: &mut [f32], r0: usize, r1: usize| {
        let mut panel = [0.0f32; KC * NR];
        let mut tile = [0.0f32; MR * NR];
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                pack_b(&mut panel, b, p0, kc, j0, nr);
                for i0 in (r0..r1).step_by(MR) {
                    let mr = MR.min(r1 - i0);
                    // Padded rows alias the last valid row; their sums are
                    // discarded below.
                    let rows = std::array::from_fn(|i| {
                        a.data[(i0 + i.min(mr - 1)) * a.rs + p0 * a.cs..].as_ptr()
                    });
                    // SAFETY: row `i0 + i < m` and `p0 + p < k`, so every read
                    // is at most `(m-1)·rs + (k-1)·cs`, in bounds by the
                    // assert above; `kern` came from `selected` or is portable.
                    unsafe { kern(kc, &rows, a.cs, &panel, &mut tile) };
                    for (i, t) in tile.chunks_exact(NR).take(mr).enumerate() {
                        let at = (i0 - r0 + i) * n + j0;
                        for (cj, tj) in c[at..at + nr].iter_mut().zip(t) {
                            *cj += tj;
                        }
                    }
                }
            }
        }
    };
    if 2 * m * k * n < PAR_MIN_FLOPS {
        return band(c, 0, m);
    }
    let cp = RawMut(c.as_mut_ptr());
    // One band of whole tiles per pool thread: each band packs all of B
    // once, so fewer, taller bands amortise the packing best.
    let tiles = m.div_ceil(MR);
    let per = tiles.div_ceil(rayon::current_num_threads().clamp(1, tiles)) * MR;
    rayon::par_indices(m.div_ceil(per), |bi| {
        let (r0, r1) = (bi * per, (bi * per + per).min(m));
        // SAFETY: bands cover disjoint row ranges of `c`.
        band(unsafe { cp.slice(r0 * n, (r1 - r0) * n) }, r0, r1);
    });
}

/// Copies `B[p0..p0+kc, j0..j0+nr]` into the first `kc` rows of `panel`,
/// walking `B` along its unit stride; padded columns are zero.
fn pack_b(panel: &mut Panel, b: View, p0: usize, kc: usize, j0: usize, nr: usize) {
    if nr < NR {
        panel.fill(0.0);
    }
    if b.cs == 1 {
        for (p, row) in panel.chunks_exact_mut(NR).take(kc).enumerate() {
            let at = (p0 + p) * b.rs + j0;
            row[..nr].copy_from_slice(&b.data[at..at + nr]);
        }
    } else {
        // `rs == 1`: column j of the panel is a contiguous run of `B`.
        for j in 0..nr {
            let at = (j0 + j) * b.cs + p0;
            for (x, dst) in b.data[at..at + kc].iter().zip(panel.chunks_exact_mut(NR)) {
                dst[j] = *x;
            }
        }
    }
}

/// Portable micro-kernel: the contract's loop with `f32::mul_add`.
///
/// # Safety
/// See [`MicroKernel`].
unsafe fn micro_portable(kc: usize, a: &Rows, a_cs: usize, b: &Panel, out: &mut Tile) {
    out.fill(0.0);
    for (p, bp) in b.chunks_exact(NR).take(kc).enumerate() {
        for (i, acc) in out.chunks_exact_mut(NR).enumerate() {
            // SAFETY: `p < kc`, the caller's contract.
            let ai = unsafe { *a[i].add(p * a_cs) };
            for (x, bj) in acc.iter_mut().zip(bp) {
                *x = ai.mul_add(*bj, *x);
            }
        }
    }
}

/// AVX2+FMA micro-kernel: twelve ymm accumulators, one broadcast of `A`
/// per row and two loads of the packed panel per step.
///
/// # Safety
/// See [`MicroKernel`]: the host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_avx2(kc: usize, a: &Rows, a_cs: usize, b: &Panel, out: &mut Tile) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    for (p, bp) in b.chunks_exact(NR).take(kc).enumerate() {
        // SAFETY: `bp` holds NR = 16 f32, two full vectors.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bp.as_ptr()),
                _mm256_loadu_ps(bp[8..].as_ptr()),
            )
        };
        for i in 0..MR {
            // SAFETY: `p < kc`, the caller's contract.
            let ai = _mm256_set1_ps(unsafe { *a[i].add(p * a_cs) });
            acc[2 * i] = _mm256_fmadd_ps(ai, b0, acc[2 * i]);
            acc[2 * i + 1] = _mm256_fmadd_ps(ai, b1, acc[2 * i + 1]);
        }
    }
    for (v, o) in acc.iter().zip(out.chunks_exact_mut(8)) {
        // SAFETY: `o` holds exactly one vector's 8 f32.
        unsafe { _mm256_storeu_ps(o.as_mut_ptr(), *v) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn naive_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        matmul_naive(&mut c, a, b, m, k, n);
        c
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = x[i * cols + j];
            }
        }
        t
    }

    /// Shapes crossing every tile edge: m < MR, n < NR, k > KC with a
    /// ragged last block, and m not divisible by MR or the band count.
    /// Each takes the parallel path.
    const EDGE_SHAPES: [(usize, usize, usize); 4] =
        [(5, 600, 200), (131, 300, 15), (64, 513, 37), (97, 257, 70)];

    /// The three layouts of one logical `A[m,k]·B[k,n]`, each on its own
    /// storage, into fresh buffers.
    fn all_layouts(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> [Vec<f32>; 3] {
        let (at, bt) = (transpose(a, m, k), transpose(b, k, n));
        let mut out = [vec![0.0; m * n], vec![0.0; m * n], vec![0.0; m * n]];
        matmul_nn(&mut out[0], a, b, m, k, n);
        matmul_nt(&mut out[1], a, &bt, m, k, n);
        matmul_tn(&mut out[2], &at, b, m, k, n);
        out
    }

    #[test]
    fn nn_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (16, 32, 8), (33, 17, 65)] {
            let a = Tensor::randn([m * k], 1.0, 1).into_vec();
            let b = Tensor::randn([k * n], 1.0, 2).into_vec();
            let mut c = vec![0.0; m * n];
            matmul_nn(&mut c, &a, &b, m, k, n);
            let r = naive_ref(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&r) {
                assert!((x - y).abs() < 1e-4, "nn mismatch at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn nt_matches_naive_with_transpose() {
        for &(m, k, n) in &[(2, 3, 4), (16, 64, 16), (5, 31, 9)] {
            let a = Tensor::randn([m * k], 1.0, 3).into_vec();
            let bt = Tensor::randn([n * k], 1.0, 4).into_vec(); // B as [n,k]
            let b = transpose(&bt, n, k); // [k,n]
            let mut c = vec![0.0; m * n];
            matmul_nt(&mut c, &a, &bt, m, k, n);
            let r = naive_ref(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&r) {
                assert!((x - y).abs() < 1e-4, "nt mismatch at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn tn_matches_naive_with_transpose() {
        for &(m, k, n) in &[(2, 3, 4), (16, 64, 16), (7, 29, 13)] {
            let at = Tensor::randn([k * m], 1.0, 5).into_vec(); // A as [k,m]
            let b = Tensor::randn([k * n], 1.0, 6).into_vec();
            let a = transpose(&at, k, m); // [m,k]
            let mut c = vec![0.0; m * n];
            matmul_tn(&mut c, &at, &b, m, k, n);
            let r = naive_ref(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&r) {
                assert!((x - y).abs() < 1e-4, "tn mismatch at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![100.0; 4];
        matmul_nn(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, vec![105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn dot_matches_scalar_reference() {
        for &n in &[0usize, 1, 7, 8, 9, 64, 250, 1024] {
            let a = Tensor::randn([n.max(1)], 1.0, 40).into_vec();
            let b = Tensor::randn([n.max(1)], 1.0, 41).into_vec();
            let (a, b) = (&a[..n], &b[..n]);
            let want: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let got = dot(a, b);
            assert!(
                (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "n={n}: {got} vs {want}"
            );
            // Deterministic: same inputs, same bits, every time.
            assert_eq!(got.to_bits(), dot(a, b).to_bits());
        }
    }

    #[test]
    fn tn_band_split_handles_indivisible_rows() {
        // Regression for the floor-divided band size: `m` chosen so it does
        // not divide by any plausible thread count, and large enough to take
        // the parallel path. All rows must be produced exactly once and the
        // parallel split must match the sequential run bit for bit.
        let (m, k, n) = (131, 70, 64);
        assert!(2 * m * n * k >= super::PAR_MIN_FLOPS);
        let at = Tensor::randn([k * m], 1.0, 42).into_vec();
        let b = Tensor::randn([k * n], 1.0, 43).into_vec();
        let mut c_par = vec![0.0; m * n];
        matmul_tn(&mut c_par, &at, &b, m, k, n);
        let mut c_seq = vec![0.0; m * n];
        rayon::force_sequential(|| matmul_tn(&mut c_seq, &at, &b, m, k, n));
        assert_eq!(c_par, c_seq);
        let a = transpose(&at, k, m);
        let r = naive_ref(&a, &b, m, k, n);
        for (x, y) in c_par.iter().zip(&r) {
            assert!((x - y).abs() < 1e-3, "tn band mismatch");
        }
    }

    #[test]
    fn parallel_path_bit_identical_to_sequential() {
        // The pool path against `force_sequential` of the same call, for
        // every layout, on shapes that cross every tile and block edge.
        for (s, &(m, k, n)) in EDGE_SHAPES.iter().enumerate() {
            assert!(
                2 * m * k * n >= PAR_MIN_FLOPS,
                "({m},{k},{n}) stays sequential"
            );
            let a = Tensor::randn([m * k], 1.0, 7 + s as u64).into_vec();
            let b = Tensor::randn([k * n], 1.0, 70 + s as u64).into_vec();
            let par = all_layouts(&a, &b, m, k, n);
            let seq = rayon::force_sequential(|| all_layouts(&a, &b, m, k, n));
            for (layout, (p, q)) in ["nn", "nt", "tn"].iter().zip(par.iter().zip(&seq)) {
                assert_eq!(p, q, "{layout} ({m},{k},{n}): rayon path changed results");
            }
        }
    }

    #[test]
    fn kernels_are_bit_identical_to_the_fused_contract() {
        // The dispatched kernel (AVX2+FMA where available) and the portable
        // `mul_add` kernel against a scalar statement of the contract: per k
        // block, `acc = fma(a, b, acc)` from zero in ascending p, then
        // `c += acc`. On a host without AVX2+FMA this is portable == portable.
        for (s, &(m, k, n)) in EDGE_SHAPES
            .iter()
            .chain(&[(7, 9, 17), (1, 1, 1)])
            .enumerate()
        {
            let a = Tensor::randn([m * k], 1.0, 80 + s as u64).into_vec();
            let b = Tensor::randn([k * n], 1.0, 90 + s as u64).into_vec();
            let c0 = Tensor::randn([m * n], 1.0, 99).into_vec();
            let mut want = c0.clone();
            for i in 0..m {
                for j in 0..n {
                    for p0 in (0..k).step_by(KC) {
                        let mut acc = 0.0f32;
                        for p in p0..(p0 + KC).min(k) {
                            acc = a[i * k + p].mul_add(b[p * n + j], acc);
                        }
                        want[i * n + j] += acc;
                    }
                }
            }
            let bt = transpose(&b, k, n);
            for (name, kern) in [("portable", micro_portable as MicroKernel), selected()] {
                let mut c = c0.clone();
                gemm(kern, &mut c, View::rows(&a, k), View::cols(&bt, k), m, k, n);
                let same = c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{name} kernel ({m},{k},{n}) departs from the fused order"
                );
            }
        }
    }

    #[test]
    fn non_finite_b_reaches_c_in_every_layout() {
        // Regression: nn and tn used to skip `a == 0.0`, silently dropping
        // `0·NaN` and `0·inf` from a poisoned B. A is all zeros here, so
        // only the poisoned column of C may (and must) go NaN.
        let (m, k, n) = (7, 5, 19);
        let a = vec![0.0f32; m * k];
        for poison in [f32::NAN, f32::INFINITY] {
            let mut b = vec![1.0f32; k * n];
            b[2 * n + 11] = poison;
            for (layout, c) in ["nn", "nt", "tn"].iter().zip(all_layouts(&a, &b, m, k, n)) {
                for (idx, x) in c.iter().enumerate() {
                    assert_eq!(x.is_nan(), idx % n == 11, "{layout}: {poison} at C[{idx}]");
                }
            }
        }
    }
}
