//! Runtime-dispatched SIMD kernels for the inference hot path.
//!
//! Three kernels dominate uncached costing: the elastic-net dot products, the
//! depth-3 oblivious FastTree walk of the combined meta-model, and the
//! standard-scaler whole-dataset sweep.  All three are vectorised with **lanes
//! across rows** (an array-of-lanes layout): an 8-row block is transposed into
//! lane-major order (`block[feature * 8 + lane]`), lane `l` carries row `l`'s
//! accumulator, and every per-row floating-point operation happens in exactly
//! the order the scalar reference (`predict_row`) uses.
//!
//! # Bit-identity contract
//!
//! Every kernel here must produce **bitwise** the same doubles as the scalar
//! path, which the inference-equivalence and zero-alloc test suites pin:
//!
//! * lanes map to *rows*, never to summation terms — each row's dot product
//!   accumulates `x[0]*w[0] + x[1]*w[1] + …` in index order, exactly like the
//!   scalar loop;
//! * multiply-then-add only: a fused multiply-add rounds once where the scalar
//!   chain rounds twice, so the AVX2 arms deliberately use `mul` + `add` even
//!   when FMA hardware is present;
//! * tree comparisons use the descent's own `!(x <= t)` predicate (NaN goes
//!   right, matching the sequential walk), and the leaf index is pure boolean
//!   algebra over the comparison bits — no floating-point reassociation at all;
//! * element-wise kernels (the scaler's `(v - mean) / std`) are trivially
//!   identical: IEEE subtraction and division are exact single operations.
//!
//! # Dispatch
//!
//! One binary serves every ISA: [`active_isa`] probes the CPU once
//! (`is_x86_feature_detected!("avx2")`) and caches the answer.  The portable
//! fallback is the same array-of-lanes loop written in plain Rust, which LLVM
//! autovectorises for whatever target it compiles on — and stays the reference
//! the AVX2 arm must match bit for bit.  Setting the `CLEO_FORCE_SCALAR`
//! environment variable (to anything but `0` or empty) pins the scalar arm, so
//! CI exercises both paths on the same hardware.  Benches report the dispatched
//! arm through [`isa_name`].

use std::cell::Cell;
use std::sync::OnceLock;

/// Rows per lane block (the `f64x8` shape: two 4-wide accumulator chains on
/// AVX2, so the serial per-lane add chains of 8 rows overlap).
pub const LANES: usize = 8;

/// The instruction-set arm the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable array-of-lanes Rust (autovectorised by LLVM where possible).
    Scalar,
    /// Explicit 256-bit `std::arch` intrinsics (x86-64 with AVX2 detected).
    Avx2,
    /// Explicit 512-bit `std::arch` intrinsics (x86-64 with AVX-512F detected):
    /// one `zmm` holds all eight lanes and the tree walk's comparisons produce
    /// `__mmask8` bits directly.
    Avx512,
}

impl Isa {
    /// Every arm, in preference order (fastest first) — what the equivalence
    /// tests iterate over.
    pub const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Scalar];

    /// Whether this arm can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The name benches record in their JSON (`simd` field).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// The arm every kernel dispatches to, probed once per process: the fastest
/// supported arm, unless `CLEO_FORCE_SCALAR` is set.
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let forced =
            std::env::var_os("CLEO_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if forced {
            return Isa::Scalar;
        }
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Scalar)
    })
}

/// The dispatched arm's name — what bench JSON records as `simd`.
pub fn isa_name() -> &'static str {
    active_isa().name()
}

thread_local! {
    /// Reused lane-block scratch: one transpose buffer per thread, grown during
    /// warmup and then stable — the zero-alloc guarantee of the sweep path
    /// covers it.
    static LANE_BLOCK: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Run `f` with this thread's reusable lane-block buffer.  The buffer is moved
/// out for the duration (a re-entrant call sees a fresh empty `Vec` instead of
/// panicking) and moved back afterwards, capacity intact.
pub fn with_lane_block<R>(f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    LANE_BLOCK.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// Transpose up to [`LANES`] contiguous row-major rows (`rows.len()` a
/// multiple of `n_cols`, at most `LANES * n_cols`) into lane-major order:
/// `block[j * LANES + lane] = rows[lane][j]`, with the lanes past the last row
/// zeroed.  A ragged tail thus runs through the same 8-lane kernels as a full
/// block, and every lane's result depends on its own row alone.  The block
/// keeps its allocation across calls (`resize` only grows).  Pure data
/// movement, so the arms are trivially identical; the AVX-512 arm moves full
/// 8×8 tiles with in-register shuffles instead of 64 strided stores.
pub fn transpose_block(rows: &[f64], n_cols: usize, block: &mut Vec<f64>) {
    transpose_block_with(active_isa(), rows, n_cols, block)
}

/// [`transpose_block`] pinned to an explicit arm.
pub fn transpose_block_with(isa: Isa, rows: &[f64], n_cols: usize, block: &mut Vec<f64>) {
    debug_assert!(isa.supported());
    debug_assert!(rows.len() <= LANES * n_cols && rows.len().is_multiple_of(n_cols.max(1)));
    if block.len() != n_cols * LANES {
        block.resize(n_cols * LANES, 0.0);
    }
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 && rows.len() == LANES * n_cols {
        unsafe { transpose_block_avx512(rows, n_cols, block) };
        return;
    }
    transpose_block_scalar(rows, n_cols, block);
}

fn transpose_block_scalar(rows: &[f64], n_cols: usize, block: &mut [f64]) {
    let count = rows.len().checked_div(n_cols).unwrap_or(0);
    for lane in 0..LANES {
        if lane < count {
            let row = &rows[lane * n_cols..(lane + 1) * n_cols];
            for (j, &v) in row.iter().enumerate() {
                block[j * LANES + lane] = v;
            }
        } else {
            for j in 0..n_cols {
                block[j * LANES + lane] = 0.0;
            }
        }
    }
}

/// 8×8 tiles via the classic three-stage double transpose: `unpacklo/hi_pd`
/// pairs adjacent rows within 128-bit sublanes, then two `shuffle_f64x2`
/// stages place the 128-bit blocks — 24 shuffles per 64 elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_block_avx512(rows: &[f64], n_cols: usize, block: &mut [f64]) {
    use std::arch::x86_64::*;
    let tiles = n_cols / 8 * 8;
    let mut j = 0usize;
    while j < tiles {
        let ld = |lane: usize| _mm512_loadu_pd(rows.as_ptr().add(lane * n_cols + j));
        let (r0, r1, r2, r3) = (ld(0), ld(1), ld(2), ld(3));
        let (r4, r5, r6, r7) = (ld(4), ld(5), ld(6), ld(7));
        // Sublane k of t0 = (r0[2k], r1[2k]); t1 the odd columns; etc.
        let t0 = _mm512_unpacklo_pd(r0, r1);
        let t1 = _mm512_unpackhi_pd(r0, r1);
        let t2 = _mm512_unpacklo_pd(r2, r3);
        let t3 = _mm512_unpackhi_pd(r2, r3);
        let t4 = _mm512_unpacklo_pd(r4, r5);
        let t5 = _mm512_unpackhi_pd(r4, r5);
        let t6 = _mm512_unpacklo_pd(r6, r7);
        let t7 = _mm512_unpackhi_pd(r6, r7);
        // 0x88 selects blocks [0,2] of each source, 0xDD blocks [1,3].
        let m0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
        let m1 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
        let m2 = _mm512_shuffle_f64x2::<0xDD>(t0, t2);
        let m3 = _mm512_shuffle_f64x2::<0xDD>(t4, t6);
        let m4 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
        let m5 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
        let m6 = _mm512_shuffle_f64x2::<0xDD>(t1, t3);
        let m7 = _mm512_shuffle_f64x2::<0xDD>(t5, t7);
        let mut st =
            |jj: usize, v: __m512d| _mm512_storeu_pd(block.as_mut_ptr().add(jj * LANES), v);
        st(j, _mm512_shuffle_f64x2::<0x88>(m0, m1));
        st(j + 1, _mm512_shuffle_f64x2::<0x88>(m4, m5));
        st(j + 2, _mm512_shuffle_f64x2::<0x88>(m2, m3));
        st(j + 3, _mm512_shuffle_f64x2::<0x88>(m6, m7));
        st(j + 4, _mm512_shuffle_f64x2::<0xDD>(m0, m1));
        st(j + 5, _mm512_shuffle_f64x2::<0xDD>(m4, m5));
        st(j + 6, _mm512_shuffle_f64x2::<0xDD>(m2, m3));
        st(j + 7, _mm512_shuffle_f64x2::<0xDD>(m6, m7));
        j += 8;
    }
    for jj in j..n_cols {
        for lane in 0..LANES {
            block[jj * LANES + lane] = rows[lane * n_cols + jj];
        }
    }
}

// --------------------------------------------------------------------------
// Elastic-net dot products: 8 rows per block, per-lane accumulation in
// feature-index order.
// --------------------------------------------------------------------------

/// Dot product of 8 lane-major rows against one weight vector.  Lane `l`'s
/// result is bitwise `Σ_j block[j*8+l] * w[j]` accumulated in `j` order — the
/// scalar `predict_row` chain.  `weights` shorter than the block's column count
/// truncates the sum (zip semantics), matching the scalar reference.
#[inline]
pub fn dot8(block: &[f64], weights: &[f64]) -> [f64; 8] {
    dot8_with(active_isa(), block, weights)
}

/// [`dot8`] pinned to an explicit arm (property tests compare the arms
/// directly).  `isa` must be [`Isa::supported`] on this CPU.
pub fn dot8_with(isa: Isa, block: &[f64], weights: &[f64]) -> [f64; 8] {
    debug_assert!(isa.supported());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dot8_avx2(block, weights) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { dot8_avx512(block, weights) },
        _ => dot8_scalar(block, weights),
    }
}

fn dot8_scalar(block: &[f64], weights: &[f64]) -> [f64; 8] {
    let mut acc = [0.0f64; 8];
    for (lanes, &wj) in block.chunks_exact(LANES).zip(weights) {
        for (a, &x) in acc.iter_mut().zip(lanes) {
            *a += x * wj;
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot8_avx2(block: &[f64], weights: &[f64]) -> [f64; 8] {
    use std::arch::x86_64::*;
    // Two independent 4-lane accumulator chains; mul-then-add (never FMA) keeps
    // each lane's rounding sequence identical to the scalar chain.
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    for (lanes, &wj) in block.chunks_exact(LANES).zip(weights) {
        let w = _mm256_set1_pd(wj);
        let p = lanes.as_ptr();
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p), w));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), w));
    }
    let mut out = [0.0f64; 8];
    _mm256_storeu_pd(out.as_mut_ptr(), a0);
    _mm256_storeu_pd(out.as_mut_ptr().add(4), a1);
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot8_avx512(block: &[f64], weights: &[f64]) -> [f64; 8] {
    use std::arch::x86_64::*;
    // One zmm carries all eight lanes; per-lane the adds still happen in `j`
    // order (the scalar chain), mul-then-add with no FMA contraction.
    let mut acc = _mm512_setzero_pd();
    for (lanes, &wj) in block.chunks_exact(LANES).zip(weights) {
        let x = _mm512_loadu_pd(lanes.as_ptr());
        acc = _mm512_add_pd(acc, _mm512_mul_pd(x, _mm512_set1_pd(wj)));
    }
    let mut out = [0.0f64; 8];
    _mm512_storeu_pd(out.as_mut_ptr(), acc);
    out
}

// --------------------------------------------------------------------------
// Depth-3 oblivious tree walk: evaluate all seven splits of a tree across 8
// rows at once, then gather leaves branchlessly.
// --------------------------------------------------------------------------

/// Add `lr * tree(row_l)` onto `acc[l]` for every tree, over a lane-major
/// block.  `splits[t][k]`/`leaves[t]` are the complete depth-3 tables of tree
/// `t` (slot 0 unused, slots 1–7 the heap-ordered splits).  Per lane the
/// additions happen in tree order — the scalar accumulation sequence — and the
/// leaf choice reproduces the sequential descent exactly (see
/// `leaf_masks`).
#[inline]
pub fn tree8_depth3_accumulate(
    splits: &[[(u32, f64); 8]],
    leaves: &[[f64; 8]],
    lr: f64,
    block: &[f64],
    acc: &mut [f64; 8],
) {
    tree8_depth3_accumulate_with(active_isa(), splits, leaves, lr, block, acc)
}

/// [`tree8_depth3_accumulate`] pinned to an explicit arm.
pub fn tree8_depth3_accumulate_with(
    isa: Isa,
    splits: &[[(u32, f64); 8]],
    leaves: &[[f64; 8]],
    lr: f64,
    block: &[f64],
    acc: &mut [f64; 8],
) {
    debug_assert!(isa.supported());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { tree8_avx2(splits, leaves, lr, block, acc) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { tree8_avx512(splits, leaves, lr, block, acc) },
        _ => tree8_scalar(splits, leaves, lr, block, acc),
    }
}

/// Combine the seven per-split lane masks into per-lane leaf indices and
/// accumulate.  The sequential descent picks `c1 = cmp(1)`, `b2 = [c2,c3][c1]`,
/// `b3 = [c4,c5,c6,c7][2*c1+b2]`, landing on leaf `4*c1 + 2*b2 + b3`; the
/// selects are pure boolean functions of the comparison bits, so they evaluate
/// for all 8 lanes at once as mask algebra — bit-identical leaf choice, no
/// per-lane table indexing.
#[inline(always)]
fn accumulate_leaves(m: &[u32; 8], lrow: &[f64; 8], lr: f64, acc: &mut [f64; 8]) {
    let c1 = m[1];
    let b2 = (c1 & m[3]) | (!c1 & m[2]);
    let b3 = (!c1 & !b2 & m[4]) | (!c1 & b2 & m[5]) | (c1 & !b2 & m[6]) | (c1 & b2 & m[7]);
    for (l, a) in acc.iter_mut().enumerate() {
        let leaf = (((c1 >> l) & 1) << 2) | (((b2 >> l) & 1) << 1) | ((b3 >> l) & 1);
        *a += lr * lrow[leaf as usize];
    }
}

/// Per-split lane masks: bit `l` of `m[k]` is the descent predicate
/// `!(row_l[feature_k] <= threshold_k)` (NaN parity with the node walk).
// `!(x <= t)` is deliberate: it goes right exactly when the walk's `x <= t`
// (go left) is false, including for NaN rows.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn leaf_masks(srow: &[(u32, f64); 8], block: &[f64]) -> [u32; 8] {
    let mut m = [0u32; 8];
    for (k, &(f, t)) in srow.iter().enumerate().skip(1) {
        let lanes = &block[f as usize * LANES..f as usize * LANES + LANES];
        let mut bits = 0u32;
        for (l, &x) in lanes.iter().enumerate() {
            bits |= u32::from(!(x <= t)) << l;
        }
        m[k] = bits;
    }
    m
}

fn tree8_scalar(
    splits: &[[(u32, f64); 8]],
    leaves: &[[f64; 8]],
    lr: f64,
    block: &[f64],
    acc: &mut [f64; 8],
) {
    for (srow, lrow) in splits.iter().zip(leaves) {
        let m = leaf_masks(srow, block);
        accumulate_leaves(&m, lrow, lr, acc);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tree8_avx2(
    splits: &[[(u32, f64); 8]],
    leaves: &[[f64; 8]],
    lr: f64,
    block: &[f64],
    acc: &mut [f64; 8],
) {
    use std::arch::x86_64::*;
    // Everything stays in vector registers: the seven split comparisons yield
    // all-ones/all-zeros lane masks, `b2`/`b3` are the descent's selects as
    // `blendv` over those masks, the leaf index is `(c1&4)|(b2&2)|(b3&1)` in
    // the integer domain, and `vpgatherqpd` fetches each lane's leaf double
    // unchanged — bit-identical to the sequential walk with no scalar epilogue.
    #[inline(always)]
    unsafe fn leaf_select(
        c: &[__m256d; 8],
        lrow: &[f64; 8],
        lrv: __m256d,
        acc: __m256d,
    ) -> __m256d {
        // blendv picks its second operand where the mask is set: b2 = c1?c3:c2,
        // b3 = [c4,c5,c6,c7][2*c1+b2] — the node walk's selects, lane-parallel.
        let b2 = _mm256_blendv_pd(c[2], c[3], c[1]);
        let b3 = _mm256_blendv_pd(
            _mm256_blendv_pd(c[4], c[5], b2),
            _mm256_blendv_pd(c[6], c[7], b2),
            c[1],
        );
        let idx = _mm256_or_si256(
            _mm256_and_si256(_mm256_castpd_si256(c[1]), _mm256_set1_epi64x(4)),
            _mm256_or_si256(
                _mm256_and_si256(_mm256_castpd_si256(b2), _mm256_set1_epi64x(2)),
                _mm256_and_si256(_mm256_castpd_si256(b3), _mm256_set1_epi64x(1)),
            ),
        );
        let leaf = _mm256_i64gather_pd::<8>(lrow.as_ptr(), idx);
        // Mul-then-add (never FMA): the scalar chain rounds twice per tree.
        _mm256_add_pd(acc, _mm256_mul_pd(lrv, leaf))
    }
    let lrv = _mm256_set1_pd(lr);
    let mut lo = _mm256_loadu_pd(acc.as_ptr());
    let mut hi = _mm256_loadu_pd(acc.as_ptr().add(4));
    for (srow, lrow) in splits.iter().zip(leaves) {
        // One pass over the seven splits computes both halves' masks with the
        // threshold broadcast shared, and the two accumulator chains (low/high
        // four lanes) stay independent so their latency overlaps.
        let mut clo = [_mm256_setzero_pd(); 8];
        let mut chi = [_mm256_setzero_pd(); 8];
        for (k, &(f, t)) in srow.iter().enumerate().skip(1) {
            let p = block.as_ptr().add(f as usize * LANES);
            let tv = _mm256_set1_pd(t);
            // NLE (unordered, quiet) is the vector form of `!(x <= t)`:
            // true for x > t and for NaN, exactly the descent predicate.
            clo[k] = _mm256_cmp_pd::<_CMP_NLE_UQ>(_mm256_loadu_pd(p), tv);
            chi[k] = _mm256_cmp_pd::<_CMP_NLE_UQ>(_mm256_loadu_pd(p.add(4)), tv);
        }
        lo = leaf_select(&clo, lrow, lrv, lo);
        hi = leaf_select(&chi, lrow, lrv, hi);
    }
    _mm256_storeu_pd(acc.as_mut_ptr(), lo);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), hi);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tree8_avx512(
    splits: &[[(u32, f64); 8]],
    leaves: &[[f64; 8]],
    lr: f64,
    block: &[f64],
    acc: &mut [f64; 8],
) {
    use std::arch::x86_64::*;
    // One zmm holds the whole lane block: each comparison produces a `__mmask8`
    // whose bit `l` is lane `l`'s descent predicate, so the leaf-index algebra
    // of [`accumulate_leaves`] runs as three plain `u8` expressions, and
    // `vpermutexvar_pd` replaces the gather — the leaf table is a register.
    let lrv = _mm512_set1_pd(lr);
    let mut a = _mm512_loadu_pd(acc.as_ptr());
    for (srow, lrow) in splits.iter().zip(leaves) {
        let mut m = [0u8; 8];
        for (k, &(f, t)) in srow.iter().enumerate().skip(1) {
            let x = _mm512_loadu_pd(block.as_ptr().add(f as usize * LANES));
            // NLE (unordered, quiet) = `!(x <= t)`: true for x > t and NaN.
            m[k] = _mm512_cmp_pd_mask::<_CMP_NLE_UQ>(x, _mm512_set1_pd(t));
        }
        let c1 = m[1];
        let b2 = (c1 & m[3]) | (!c1 & m[2]);
        let b3 = (!c1 & !b2 & m[4]) | (!c1 & b2 & m[5]) | (c1 & !b2 & m[6]) | (c1 & b2 & m[7]);
        // Per-lane leaf index 4*c1 + 2*b2 + b3, assembled lane-parallel.
        let idx = _mm512_or_epi64(
            _mm512_maskz_set1_epi64(c1, 4),
            _mm512_or_epi64(
                _mm512_maskz_set1_epi64(b2, 2),
                _mm512_maskz_set1_epi64(b3, 1),
            ),
        );
        let leaf = _mm512_permutexvar_pd(idx, _mm512_loadu_pd(lrow.as_ptr()));
        // Mul-then-add (never FMA): the scalar chain rounds twice per tree.
        a = _mm512_add_pd(a, _mm512_mul_pd(lrv, leaf));
    }
    _mm512_storeu_pd(acc.as_mut_ptr(), a);
}

// --------------------------------------------------------------------------
// Standard-scaler whole-dataset sweep.
// --------------------------------------------------------------------------

/// Standardise a row-major buffer in place: `v = (v - means[j]) / stds[j]` for
/// every row's column `j`.  Element-wise IEEE subtract/divide — bit-identical
/// to the per-row scalar transform on any arm.
pub fn scale_shift_rows(values: &mut [f64], means: &[f64], stds: &[f64]) {
    scale_shift_rows_with(active_isa(), values, means, stds)
}

/// [`scale_shift_rows`] pinned to an explicit arm.
pub fn scale_shift_rows_with(isa: Isa, values: &mut [f64], means: &[f64], stds: &[f64]) {
    debug_assert!(isa.supported());
    assert_eq!(means.len(), stds.len(), "scaler parameter width mismatch");
    let n_cols = means.len();
    if n_cols == 0 || values.is_empty() {
        return;
    }
    assert_eq!(values.len() % n_cols, 0, "buffer is not whole rows");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { scale_shift_avx2(values, means, stds) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { scale_shift_avx512(values, means, stds) },
        _ => scale_shift_scalar(values, means, stds),
    }
}

fn scale_shift_scalar(values: &mut [f64], means: &[f64], stds: &[f64]) {
    for row in values.chunks_exact_mut(means.len()) {
        for ((v, &m), &s) in row.iter_mut().zip(means).zip(stds) {
            *v = (*v - m) / s;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_shift_avx2(values: &mut [f64], means: &[f64], stds: &[f64]) {
    use std::arch::x86_64::*;
    let n_cols = means.len();
    let quads = n_cols / 4 * 4;
    for row in values.chunks_exact_mut(n_cols) {
        let mut j = 0usize;
        while j < quads {
            let v = _mm256_loadu_pd(row.as_ptr().add(j));
            let m = _mm256_loadu_pd(means.as_ptr().add(j));
            let s = _mm256_loadu_pd(stds.as_ptr().add(j));
            _mm256_storeu_pd(
                row.as_mut_ptr().add(j),
                _mm256_div_pd(_mm256_sub_pd(v, m), s),
            );
            j += 4;
        }
        for jj in j..n_cols {
            row[jj] = (row[jj] - means[jj]) / stds[jj];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scale_shift_avx512(values: &mut [f64], means: &[f64], stds: &[f64]) {
    use std::arch::x86_64::*;
    let n_cols = means.len();
    let octs = n_cols / 8 * 8;
    for row in values.chunks_exact_mut(n_cols) {
        let mut j = 0usize;
        while j < octs {
            let v = _mm512_loadu_pd(row.as_ptr().add(j));
            let m = _mm512_loadu_pd(means.as_ptr().add(j));
            let s = _mm512_loadu_pd(stds.as_ptr().add(j));
            _mm512_storeu_pd(
                row.as_mut_ptr().add(j),
                _mm512_div_pd(_mm512_sub_pd(v, m), s),
            );
            j += 8;
        }
        for jj in j..n_cols {
            row[jj] = (row[jj] - means[jj]) / stds[jj];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(rows: &[Vec<f64>]) -> Vec<f64> {
        let n_cols = rows[0].len();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut block = Vec::new();
        transpose_block(&flat, n_cols, &mut block);
        block
    }

    fn rows8(n_cols: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = cleo_common::rng::DetRng::new(seed);
        (0..LANES)
            .map(|_| (0..n_cols).map(|_| rng.uniform(-3.0, 3.0)).collect())
            .collect()
    }

    #[test]
    fn isa_name_is_one_of_the_documented_arms() {
        assert!(matches!(isa_name(), "avx512" | "avx2" | "scalar"));
        assert!(Isa::Scalar.supported());
        assert_eq!(active_isa().name(), isa_name());
    }

    #[test]
    fn dot8_matches_per_row_scalar_reference() {
        let rows = rows8(13, 7);
        let weights: Vec<f64> = (0..13).map(|j| (j as f64 - 6.0) * 0.37).collect();
        let block = block_of(&rows);
        let got = dot8(&block, &weights);
        for (l, row) in rows.iter().enumerate() {
            let want: f64 = row.iter().zip(&weights).map(|(x, w)| x * w).sum();
            assert_eq!(got[l].to_bits(), want.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn both_arms_agree_when_avx2_is_available() {
        let rows = rows8(9, 11);
        let weights: Vec<f64> = (0..9).map(|j| 0.1 + j as f64).collect();
        let block = block_of(&rows);
        if Isa::Avx2.supported() {
            assert_eq!(
                dot8_with(Isa::Avx2, &block, &weights),
                dot8_with(Isa::Scalar, &block, &weights)
            );
        }
    }

    #[test]
    fn scale_shift_matches_row_transform() {
        let mut values: Vec<f64> = (0..30).map(|i| i as f64 * 1.7 - 11.0).collect();
        let means = [1.0, -2.0, 0.5];
        let stds = [2.0, 0.25, 3.0];
        let want: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v - means[i % 3]) / stds[i % 3])
            .collect();
        scale_shift_rows(&mut values, &means, &stds);
        assert_eq!(values, want);
    }

    #[test]
    fn lane_block_is_reused_not_reallocated() {
        with_lane_block(|block| {
            transpose_block(&vec![1.0; LANES * 4], 4, block);
            assert_eq!(block.len(), 32);
        });
        with_lane_block(|block| {
            assert!(block.capacity() >= 32, "buffer must persist across calls");
        });
    }
}
