//! x86-64 chunk loops: 256-bit AVX2 and 128-bit SSE2 variants.
//!
//! Every function here is `#[target_feature]`-gated and reached only via
//! the dispatch wrappers in [`super`], which guarantee the feature was
//! runtime-detected. Register operands (`&[f32; CHUNK]`) live inside
//! [`super::Lanes`] (64-byte aligned), so in-register loops use aligned
//! loads/stores; buffer-side stores use unaligned accesses.
//!
//! # Bit-exactness notes (empirically verified against the scalar path)
//!
//! * `min`/`max`: `minps`/`maxps` are asymmetric — on NaN or `(±0, ∓0)`
//!   they return the *second* operand. Rust's `f32::min(a, b)` returns `b`
//!   when `a` is NaN, otherwise behaves like `minps(b, a)` (second operand
//!   `a` wins ties, NaN `b` yields `a`). So the exact form is
//!   `blend(minps(b, a), b, isnan(a))`, and symmetrically for `max`.
//! * round-half-away-from-zero (`f32::round`): computed as
//!   `trunc(|x|) + (frac ≥ 0.5)` with the sign bit reapplied, valid for
//!   `|x| < 2²³` where `cvttps` is exact. Lanes with `|x| ≥ 2²³` (already
//!   integral) *and* NaN lanes instead take `x + 0.0`, which is bit-exact
//!   for every finite/infinite value in that range (no signed zeros occur
//!   there) and quiets signaling NaNs exactly like `roundf` does.
//! * comparisons: ordered predicates (`LT_OQ`, …) except `NEQ_UQ` for `!=`
//!   match Rust's `<`/`<=`/`==`/`!=` on NaN; `>`/`>=` swap operands.
//! * clamp: two `select`s (`v < lo → lo`, then `> hi → hi`) reproduce
//!   `f32::clamp` including NaN passthrough and `-0.0 < 0.0 == false`.
//! * No FMA is ever emitted: multiplies and adds are separate intrinsics.

use crate::eval::{round_ties_away, scalar_bin, scalar_cmp, CHUNK};
use crate::{BinF, CmpF};
use std::arch::x86_64::*;

// ---------------------------------------------------------------------------
// AVX2 (8 lanes)
// ---------------------------------------------------------------------------

/// Rust `x.min(y)` semantics, 8 lanes. See module docs.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn min8(x: __m256, y: __m256) -> __m256 {
    let m = _mm256_min_ps(y, x);
    let xnan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(m, y, xnan)
}

/// Rust `x.max(y)` semantics, 8 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn max8(x: __m256, y: __m256) -> __m256 {
    let m = _mm256_max_ps(y, x);
    let xnan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(m, y, xnan)
}

/// `f32::round` (ties away from zero) semantics, 8 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round8(x: __m256) -> __m256 {
    let sign_mask = _mm256_set1_ps(-0.0);
    let abs = _mm256_andnot_ps(sign_mask, x);
    // !(|x| < 2^23): true for already-integral magnitudes, infinities, NaN.
    let big = _mm256_cmp_ps::<_CMP_NLT_UQ>(abs, _mm256_set1_ps(8388608.0));
    let tr = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(abs));
    let frac = _mm256_sub_ps(abs, tr);
    let half = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    let rounded = _mm256_add_ps(tr, _mm256_and_ps(half, _mm256_set1_ps(1.0)));
    let signed = _mm256_or_ps(rounded, _mm256_and_ps(sign_mask, x));
    // `x + 0.0` is bit-exact for big lanes and quiets sNaN like `roundf`.
    let quieted = _mm256_add_ps(x, _mm256_set1_ps(0.0));
    _mm256_blendv_ps(signed, quieted, big)
}

/// `f32::clamp(v, lo, hi)` semantics, 8 lanes (NaN passes through).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn clamp8(v: __m256, lo: __m256, hi: __m256) -> __m256 {
    let below = _mm256_cmp_ps::<_CMP_LT_OQ>(v, lo);
    let c = _mm256_blendv_ps(v, lo, below);
    let above = _mm256_cmp_ps::<_CMP_GT_OQ>(c, hi);
    _mm256_blendv_ps(c, hi, above)
}

/// Lane-exact `BinF` over register chunks (Mod/Pow never dispatched here).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn bin_avx2(
    op: BinF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    macro_rules! lanes {
        ($ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(_mm256_load_ps(ap.add(i)), _mm256_load_ps(bp.add(i)));
                _mm256_store_ps(dp.add(i), r);
                i += 8;
            }
        }};
    }
    match op {
        BinF::Add => lanes!(_mm256_add_ps),
        BinF::Sub => lanes!(_mm256_sub_ps),
        BinF::Mul => lanes!(_mm256_mul_ps),
        BinF::Div => lanes!(_mm256_div_ps),
        BinF::Min => lanes!(min8),
        BinF::Max => lanes!(max8),
        BinF::Mod | BinF::Pow => debug_assert!(false, "Mod/Pow are scalar-only"),
    }
    for i in n..len {
        d[i] = scalar_bin(op, a[i], b[i]);
    }
}

/// Comparison masks (1.0 / 0.0) over register chunks.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn cmp_avx2(
    op: CmpF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    let one = _mm256_set1_ps(1.0);
    macro_rules! lanes {
        ($x:expr, $y:expr, $p:ident) => {{
            let mut i = 0;
            while i < n {
                let r = _mm256_cmp_ps::<$p>(_mm256_load_ps($x.add(i)), _mm256_load_ps($y.add(i)));
                _mm256_store_ps(dp.add(i), _mm256_and_ps(r, one));
                i += 8;
            }
        }};
    }
    match op {
        CmpF::Lt => lanes!(ap, bp, _CMP_LT_OQ),
        CmpF::Le => lanes!(ap, bp, _CMP_LE_OQ),
        CmpF::Gt => lanes!(bp, ap, _CMP_LT_OQ),
        CmpF::Ge => lanes!(bp, ap, _CMP_LE_OQ),
        CmpF::Eq => lanes!(ap, bp, _CMP_EQ_OQ),
        CmpF::Ne => lanes!(ap, bp, _CMP_NEQ_UQ),
    }
    for i in n..len {
        d[i] = scalar_cmp(op, a[i], b[i]);
    }
}

/// Mask negation `d = 1.0 − a`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn not_avx2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !7;
    let one = _mm256_set1_ps(1.0);
    let mut i = 0;
    while i < n {
        _mm256_store_ps(
            d.as_mut_ptr().add(i),
            _mm256_sub_ps(one, _mm256_load_ps(a.as_ptr().add(i))),
        );
        i += 8;
    }
    for i in n..len {
        d[i] = 1.0 - a[i];
    }
}

/// Lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn select_avx2(
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        let vm = _mm256_load_ps(m.as_ptr().add(i));
        let va = _mm256_load_ps(a.as_ptr().add(i));
        let vb = _mm256_load_ps(b.as_ptr().add(i));
        // NaN != 0.0 is true, -0.0 != 0.0 is false — matches the scalar test.
        let take_a = _mm256_cmp_ps::<_CMP_NEQ_UQ>(vm, zero);
        _mm256_store_ps(d.as_mut_ptr().add(i), _mm256_blendv_ps(vb, va, take_a));
        i += 8;
    }
    for i in n..len {
        d[i] = if m[i] != 0.0 { a[i] } else { b[i] };
    }
}

/// `CastRound`: round half away from zero.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn round_avx2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !7;
    let mut i = 0;
    while i < n {
        _mm256_store_ps(
            d.as_mut_ptr().add(i),
            round8(_mm256_load_ps(a.as_ptr().add(i))),
        );
        i += 8;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i]);
    }
}

/// `CastSat`: clamp to `[lo, hi]`, then round half away from zero.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn sat_avx2(
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) {
    let n = len & !7;
    let vlo = _mm256_set1_ps(lo);
    let vhi = _mm256_set1_ps(hi);
    let mut i = 0;
    while i < n {
        let c = clamp8(_mm256_load_ps(a.as_ptr().add(i)), vlo, vhi);
        _mm256_store_ps(d.as_mut_ptr().add(i), round8(c));
        i += 8;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i].clamp(lo, hi));
    }
}

/// Chunk store with optional saturation/rounding into an output buffer
/// slice (unaligned destination).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn store_avx2(
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) {
    let len = dst.len().min(src.len());
    let n = len & !7;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    match (sat, round) {
        (Some((lo, hi)), true) => {
            let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp8(_mm256_loadu_ps(sp.add(i)), vlo, vhi);
                _mm256_storeu_ps(dp.add(i), round8(c));
                i += 8;
            }
            for i in n..len {
                dst[i] = round_ties_away(src[i].clamp(lo, hi));
            }
        }
        (Some((lo, hi)), false) => {
            let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp8(_mm256_loadu_ps(sp.add(i)), vlo, vhi);
                _mm256_storeu_ps(dp.add(i), c);
                i += 8;
            }
            for i in n..len {
                dst[i] = src[i].clamp(lo, hi);
            }
        }
        (None, true) => {
            let mut i = 0;
            while i < n {
                _mm256_storeu_ps(dp.add(i), round8(_mm256_loadu_ps(sp.add(i))));
                i += 8;
            }
            for i in n..len {
                dst[i] = round_ties_away(src[i]);
            }
        }
        (None, false) => dst.copy_from_slice(&src[..len]),
    }
}

/// Constant-stride load via hardware gather: `d[i] = data[start + i·step]`.
/// The caller has proven every index in-bounds and within `i32` range, so
/// the gather reads exactly the elements the scalar loop would.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn strided_avx2(
    d: &mut [f32; CHUNK],
    data: &[f32],
    start: i64,
    step: i64,
    len: usize,
) {
    let n = len & !7;
    let base = data.as_ptr();
    let vstep = _mm256_set1_epi32(step as i32);
    let mut idx = _mm256_add_epi32(
        _mm256_set1_epi32(start as i32),
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), vstep),
    );
    // The post-loop advance may wrap in lanes past the end; those indices
    // are never used for a gather.
    let advance = _mm256_slli_epi32::<3>(vstep);
    let mut i = 0;
    while i < n {
        let v = _mm256_i32gather_ps::<4>(base, idx);
        _mm256_store_ps(d.as_mut_ptr().add(i), v);
        idx = _mm256_add_epi32(idx, advance);
        i += 8;
    }
    for i in n..len {
        d[i] = data[(start + i as i64 * step) as usize];
    }
}

/// `UnF::Floor` (`ceil == false`) or `UnF::Ceil` via `roundps` with
/// exceptions suppressed — exact on every non-NaN input. NaN lanes (and
/// the tail) take the portable scalar function, because `roundps` quiets
/// signaling NaNs while the baseline `floorf`/`ceilf` may pass them
/// through.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn floor_ceil_avx2(
    ceil: bool,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let (ap, dp) = (a.as_ptr(), d.as_mut_ptr());
    let mut i = 0;
    while i < n {
        let x = _mm256_load_ps(ap.add(i));
        let r = if ceil {
            _mm256_round_ps::<{ _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC }>(x)
        } else {
            _mm256_round_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(x)
        };
        _mm256_store_ps(dp.add(i), r);
        if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x)) != 0 {
            fix_nan_lanes(ceil, d, a, i, i + 8);
        }
        i += 8;
    }
    for i in n..len {
        d[i] = super::scalar_floor_ceil(ceil, a[i]);
    }
}

/// Recomputes the NaN lanes of `lo..hi` with the portable scalar function.
#[inline]
fn fix_nan_lanes(ceil: bool, d: &mut [f32; CHUNK], a: &[f32; CHUNK], lo: usize, hi: usize) {
    for j in lo..hi {
        if a[j].is_nan() {
            d[j] = super::scalar_floor_ceil(ceil, a[j]);
        }
    }
}

/// Flat indices of a data-dependent access proven to fit 32-bit lanes
/// (see [`super::Plan32`]), for every 8-lane block that covers
/// `0..len`. Lanes at and past `len` hold meaningless values.
///
/// Per register dimension: round (ties away, exact), NaN → 0, clamp in
/// the float domain (exact: both bounds are integers within ±2²⁴), then
/// truncate — equal to `(round(v) as i64).clamp(org, hi)` in every lane.
///
/// # Safety
///
/// AVX2 must be available, and `plan` must come from
/// [`super::Plan32::prove`] for this `acc` and `len` (the 32-bit lane
/// arithmetic is exact only under its bounds). Register reads stay inside
/// the 128-lane registers: `8 · ⌈len / 8⌉ ≤ CHUNK`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn indices_avx2(
    out: &mut [i32; CHUNK],
    plan: &super::Plan32,
    acc: &super::Access<'_>,
    len: usize,
) {
    let blocks = len.div_ceil(8);
    let op = out.as_mut_ptr() as *mut __m256i;
    let base = _mm256_set1_epi32(plan.base);
    match &plan.axis {
        None => {
            for b in 0..blocks {
                _mm256_storeu_si256(op.add(b), base);
            }
        }
        Some(ax) => {
            let mut qt = _mm256_loadu_si256(ax.qt.as_ptr() as *const __m256i);
            let mut r = _mm256_loadu_si256(ax.r.as_ptr() as *const __m256i);
            let (dq, dr) = (_mm256_set1_epi32(ax.dq8), _mm256_set1_epi32(ax.dr8));
            let (m, m1) = (_mm256_set1_epi32(ax.m), _mm256_set1_epi32(ax.m - 1));
            let stride = _mm256_set1_epi32(ax.stride);
            for b in 0..blocks {
                let t = _mm256_add_epi32(base, _mm256_mullo_epi32(qt, stride));
                _mm256_storeu_si256(op.add(b), t);
                // Next block: add 8q divmod m, carrying once.
                qt = _mm256_add_epi32(qt, dq);
                r = _mm256_add_epi32(r, dr);
                let carry = _mm256_cmpgt_epi32(r, m1);
                r = _mm256_sub_epi32(r, _mm256_and_si256(carry, m));
                qt = _mm256_sub_epi32(qt, carry);
            }
        }
    }
    for dim in acc.dims {
        let src = acc.regs[dim.reg].0.as_ptr();
        let lo = _mm256_set1_ps(dim.org as f32);
        let hi = _mm256_set1_ps((dim.org + dim.size - 1) as f32);
        let org = _mm256_set1_epi32(dim.org as i32);
        let stride = _mm256_set1_epi32(dim.stride as i32);
        for b in 0..blocks {
            let v = round8(_mm256_load_ps(src.add(8 * b)));
            let v = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v), v);
            let c = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
            let rel = _mm256_sub_epi32(_mm256_cvttps_epi32(c), org);
            let acc = _mm256_loadu_si256(op.add(b));
            let acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(rel, stride));
            _mm256_storeu_si256(op.add(b), acc);
        }
    }
}

/// Hardware gather `d[i] = data[idx[i]]` of lanes `0..len`; the tail
/// reads through bounds-checked indexing.
///
/// # Safety
///
/// AVX2 must be available, and every `idx[i]` with `i < len & !7` must be
/// a valid index into `data` (proven by [`super::Plan32::prove`] before
/// [`indices_avx2`] computed them): `vgatherdps` reads unchecked.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn gather_avx2(
    d: &mut [f32; CHUNK],
    data: &[f32],
    idx: &[i32; CHUNK],
    len: usize,
) {
    let n = len & !7;
    let base = data.as_ptr();
    let mut i = 0;
    while i < n {
        let vi = _mm256_loadu_si256(idx.as_ptr().add(i) as *const __m256i);
        _mm256_storeu_ps(d.as_mut_ptr().add(i), _mm256_i32gather_ps::<4>(base, vi));
        i += 8;
    }
    for i in n..len {
        d[i] = data[idx[i] as usize];
    }
}

// ---------------------------------------------------------------------------
// SSE2 (4 lanes). Same sequences at 128-bit width; SSE2 has no `blendv`
// (that is SSE4.1), so selects use and/andnot/or on full-width masks.
// ---------------------------------------------------------------------------

/// Bitwise select: `mask ? t : f` (mask lanes are all-ones or all-zeros).
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sel4(mask: __m128, t: __m128, f: __m128) -> __m128 {
    _mm_or_ps(_mm_and_ps(mask, t), _mm_andnot_ps(mask, f))
}

/// Rust `x.min(y)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn min4(x: __m128, y: __m128) -> __m128 {
    let m = _mm_min_ps(y, x);
    let xnan = _mm_cmpunord_ps(x, x);
    sel4(xnan, y, m)
}

/// Rust `x.max(y)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn max4(x: __m128, y: __m128) -> __m128 {
    let m = _mm_max_ps(y, x);
    let xnan = _mm_cmpunord_ps(x, x);
    sel4(xnan, y, m)
}

/// `f32::round` (ties away from zero) semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn round4(x: __m128) -> __m128 {
    let sign_mask = _mm_set1_ps(-0.0);
    let abs = _mm_andnot_ps(sign_mask, x);
    let big = _mm_cmpnlt_ps(abs, _mm_set1_ps(8388608.0));
    let tr = _mm_cvtepi32_ps(_mm_cvttps_epi32(abs));
    let frac = _mm_sub_ps(abs, tr);
    let half = _mm_cmpge_ps(frac, _mm_set1_ps(0.5));
    let rounded = _mm_add_ps(tr, _mm_and_ps(half, _mm_set1_ps(1.0)));
    let signed = _mm_or_ps(rounded, _mm_and_ps(sign_mask, x));
    let quieted = _mm_add_ps(x, _mm_set1_ps(0.0));
    sel4(big, quieted, signed)
}

/// `f32::floor` (`CEIL == false`) or `f32::ceil` of every non-NaN lane,
/// 4 lanes. SSE2 has no `roundps` (SSE4.1): truncate, step one toward −∞
/// (+∞) where the truncation overshot, and OR the input's sign back so
/// that `(-1, -0]` floors (ceils) to `-0.0`. Lanes with `|x| ≥ 2²³`
/// (already integral) and infinities pass through unchanged; NaN lanes
/// are the caller's to fix.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn floor_ceil4<const CEIL: bool>(x: __m128) -> __m128 {
    let sign_mask = _mm_set1_ps(-0.0);
    let one = _mm_set1_ps(1.0);
    let abs = _mm_andnot_ps(sign_mask, x);
    let big = _mm_cmpnlt_ps(abs, _mm_set1_ps(8388608.0));
    let tr = _mm_cvtepi32_ps(_mm_cvttps_epi32(x));
    let stepped = if CEIL {
        _mm_add_ps(tr, _mm_and_ps(_mm_cmplt_ps(tr, x), one))
    } else {
        _mm_sub_ps(tr, _mm_and_ps(_mm_cmpgt_ps(tr, x), one))
    };
    let signed = _mm_or_ps(stepped, _mm_and_ps(sign_mask, x));
    sel4(big, x, signed)
}

/// `f32::clamp(v, lo, hi)` semantics, 4 lanes.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn clamp4(v: __m128, lo: __m128, hi: __m128) -> __m128 {
    let below = _mm_cmplt_ps(v, lo);
    let c = sel4(below, lo, v);
    let above = _mm_cmpgt_ps(c, hi);
    sel4(above, hi, c)
}

/// Lane-exact `BinF` over register chunks (Mod/Pow never dispatched here).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn bin_sse2(
    op: BinF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    macro_rules! lanes {
        ($ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(_mm_load_ps(ap.add(i)), _mm_load_ps(bp.add(i)));
                _mm_store_ps(dp.add(i), r);
                i += 4;
            }
        }};
    }
    match op {
        BinF::Add => lanes!(_mm_add_ps),
        BinF::Sub => lanes!(_mm_sub_ps),
        BinF::Mul => lanes!(_mm_mul_ps),
        BinF::Div => lanes!(_mm_div_ps),
        BinF::Min => lanes!(min4),
        BinF::Max => lanes!(max4),
        BinF::Mod | BinF::Pow => debug_assert!(false, "Mod/Pow are scalar-only"),
    }
    for i in n..len {
        d[i] = scalar_bin(op, a[i], b[i]);
    }
}

/// Comparison masks (1.0 / 0.0) over register chunks.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn cmp_sse2(
    op: CmpF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, bp, dp) = (a.as_ptr(), b.as_ptr(), d.as_mut_ptr());
    let one = _mm_set1_ps(1.0);
    macro_rules! lanes {
        ($x:expr, $y:expr, $ins:path) => {{
            let mut i = 0;
            while i < n {
                let r = $ins(_mm_load_ps($x.add(i)), _mm_load_ps($y.add(i)));
                _mm_store_ps(dp.add(i), _mm_and_ps(r, one));
                i += 4;
            }
        }};
    }
    match op {
        CmpF::Lt => lanes!(ap, bp, _mm_cmplt_ps),
        CmpF::Le => lanes!(ap, bp, _mm_cmple_ps),
        CmpF::Gt => lanes!(bp, ap, _mm_cmplt_ps),
        CmpF::Ge => lanes!(bp, ap, _mm_cmple_ps),
        CmpF::Eq => lanes!(ap, bp, _mm_cmpeq_ps),
        CmpF::Ne => lanes!(ap, bp, _mm_cmpneq_ps),
    }
    for i in n..len {
        d[i] = scalar_cmp(op, a[i], b[i]);
    }
}

/// Mask negation `d = 1.0 − a`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn not_sse2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let one = _mm_set1_ps(1.0);
    let mut i = 0;
    while i < n {
        _mm_store_ps(
            d.as_mut_ptr().add(i),
            _mm_sub_ps(one, _mm_load_ps(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = 1.0 - a[i];
    }
}

/// Lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn select_sse2(
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let zero = _mm_setzero_ps();
    let mut i = 0;
    while i < n {
        let vm = _mm_load_ps(m.as_ptr().add(i));
        let va = _mm_load_ps(a.as_ptr().add(i));
        let vb = _mm_load_ps(b.as_ptr().add(i));
        let take_a = _mm_cmpneq_ps(vm, zero);
        _mm_store_ps(d.as_mut_ptr().add(i), sel4(take_a, va, vb));
        i += 4;
    }
    for i in n..len {
        d[i] = if m[i] != 0.0 { a[i] } else { b[i] };
    }
}

/// `CastRound`: round half away from zero.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn round_sse2(d: &mut [f32; CHUNK], a: &[f32; CHUNK], len: usize) {
    let n = len & !3;
    let mut i = 0;
    while i < n {
        _mm_store_ps(
            d.as_mut_ptr().add(i),
            round4(_mm_load_ps(a.as_ptr().add(i))),
        );
        i += 4;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i]);
    }
}

/// `UnF::Floor` (`ceil == false`) or `UnF::Ceil`; NaN lanes and the tail
/// take the portable scalar function (see [`floor_ceil_avx2`]).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn floor_ceil_sse2(
    ceil: bool,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) {
    let n = len & !3;
    let (ap, dp) = (a.as_ptr(), d.as_mut_ptr());
    let mut i = 0;
    while i < n {
        let x = _mm_load_ps(ap.add(i));
        let r = if ceil {
            floor_ceil4::<true>(x)
        } else {
            floor_ceil4::<false>(x)
        };
        _mm_store_ps(dp.add(i), r);
        if _mm_movemask_ps(_mm_cmpunord_ps(x, x)) != 0 {
            fix_nan_lanes(ceil, d, a, i, i + 4);
        }
        i += 4;
    }
    for i in n..len {
        d[i] = super::scalar_floor_ceil(ceil, a[i]);
    }
}

/// `CastSat`: clamp to `[lo, hi]`, then round half away from zero.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn sat_sse2(
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) {
    let n = len & !3;
    let vlo = _mm_set1_ps(lo);
    let vhi = _mm_set1_ps(hi);
    let mut i = 0;
    while i < n {
        let c = clamp4(_mm_load_ps(a.as_ptr().add(i)), vlo, vhi);
        _mm_store_ps(d.as_mut_ptr().add(i), round4(c));
        i += 4;
    }
    for i in n..len {
        d[i] = round_ties_away(a[i].clamp(lo, hi));
    }
}

/// Chunk store with optional saturation/rounding into an output buffer
/// slice (unaligned destination).
#[target_feature(enable = "sse2")]
pub(super) unsafe fn store_sse2(
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) {
    let len = dst.len().min(src.len());
    let n = len & !3;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    match (sat, round) {
        (Some((lo, hi)), true) => {
            let (vlo, vhi) = (_mm_set1_ps(lo), _mm_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp4(_mm_loadu_ps(sp.add(i)), vlo, vhi);
                _mm_storeu_ps(dp.add(i), round4(c));
                i += 4;
            }
            for i in n..len {
                dst[i] = round_ties_away(src[i].clamp(lo, hi));
            }
        }
        (Some((lo, hi)), false) => {
            let (vlo, vhi) = (_mm_set1_ps(lo), _mm_set1_ps(hi));
            let mut i = 0;
            while i < n {
                let c = clamp4(_mm_loadu_ps(sp.add(i)), vlo, vhi);
                _mm_storeu_ps(dp.add(i), c);
                i += 4;
            }
            for i in n..len {
                dst[i] = src[i].clamp(lo, hi);
            }
        }
        (None, true) => {
            let mut i = 0;
            while i < n {
                _mm_storeu_ps(dp.add(i), round4(_mm_loadu_ps(sp.add(i))));
                i += 4;
            }
            for i in n..len {
                dst[i] = round_ties_away(src[i]);
            }
        }
        (None, false) => dst.copy_from_slice(&src[..len]),
    }
}
