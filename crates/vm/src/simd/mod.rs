//! Explicit SIMD backend for the chunk evaluator.
//!
//! The generated C++ of the original PolyMage leans on icc (`#pragma ivdep`)
//! to vectorize its inner loops; our interpreter-style VM instead evaluates
//! each kernel op as a Rust slice loop and hopes the autovectorizer keeps
//! up. Without `-C target-cpu`, that ceiling is SSE2-width arithmetic and
//! per-lane `roundf` libcalls for the cast ops. This module replaces the
//! hope with hand-written `std::arch` chunk loops, selected **once per
//! process** by runtime feature detection:
//!
//! - **AVX2** and **SSE2** on x86-64 (`#[target_feature]` functions reached
//!   only after `is_x86_feature_detected!` approves);
//! - **NEON** on aarch64 (baseline, always available);
//! - the existing scalar loops everywhere else — no `std::arch` path is
//!   compiled on other architectures, keeping every platform building.
//!
//! # Bit-exactness contract
//!
//! Every vector loop must produce **bit-identical** results to the scalar
//! semantics in [`crate::eval`] (`scalar_bin`/`scalar_cmp`/`round_ties_away`),
//! lane for lane, for *arbitrary* inputs — including NaN payloads, signed
//! zeros, subnormals, and infinities. That shapes the implementation:
//!
//! - only IEEE-exact ops are vectorized (add/sub/mul/div/min/max,
//!   comparisons, mask algebra, select, round/saturate casts, floor/ceil,
//!   loads, data-dependent gathers and the reduction scatter's target
//!   indices); transcendentals, `Mod` and `Pow` stay on the scalar paths;
//! - data-dependent indices are computed in one routine ([`gather`],
//!   [`flat_indices`]): exact rounding, saturation and clamping per lane,
//!   a stepped (division-free) chunk-axis floor division, and on AVX2 a
//!   hardware gather only when every index is proven in bounds — anything
//!   unproven takes the bounds-checked scalar load, which panics on an
//!   out-of-range affine index exactly as before. Strided loads with a
//!   floor divisor (`x/2` upsampling) are the same routine with no
//!   register dimension;
//! - chunk stores saturate and round through [`store`] once per chunk
//!   whatever the chunk axis' stride (3-channel and level-innermost
//!   stages chunk along a strided axis): the executor transforms a
//!   strided or masked chunk into a temporary, then copies it lane by
//!   lane. A per-lane `f32::round` there cost an out-of-line `roundf`
//!   call on every stored lane — in optimized builds even for float
//!   stages, because the call was hoisted ahead of the rounding test;
//! - **no FMA contraction is ever emitted** — multiplies and adds remain
//!   separate instructions, so results match the scalar evaluation exactly;
//! - `min`/`max` blend around the asymmetric NaN/±0 behavior of
//!   `minps`/`maxps` to reproduce Rust's `f32::min`/`f32::max`;
//! - the round-half-away-from-zero cast uses an exact integer-truncate /
//!   compare sequence rather than the classic (and *wrong* in f32)
//!   `trunc(|x| + 0.5)` trick, and quiets signaling NaNs exactly like
//!   `f32::round` does;
//! - vector bodies cover `len` rounded down to the vector width and a
//!   scalar tail finishes the rest, so lanes at and beyond `ctx.len` are
//!   never read or written.
//!
//! The proptest suite in `crates/vm/tests` re-runs random kernels at every
//! available [`SimdLevel`] and asserts bit-identical register files against
//! the forced-scalar path.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (scoped `#[allow(unsafe_code)]` under the crate's `#![deny(unsafe_code)]`);
//! the safety argument is that every `#[target_feature]` function is reached
//! only through a [`SimdLevel`] that [`clamp_to_detected`] has approved for
//! the running CPU.

use std::sync::OnceLock;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::eval::{round_ties_away, CHUNK};
use crate::{BinF, CmpF};

/// A cache-line-aligned chunk register: the storage unit of
/// [`crate::RegFile`].
///
/// `#[repr(align(64))]` guarantees every register (and every in-register
/// vector lane group) is aligned for the widest load/store the backend
/// emits, so the x86 loops can use aligned `load_ps`/`store_ps` on register
/// operands.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct Lanes(pub(crate) [f32; CHUNK]);

impl Lanes {
    /// A zero-filled register.
    pub(crate) fn zeroed() -> Lanes {
        Lanes([0.0; CHUNK])
    }
}

impl std::ops::Deref for Lanes {
    type Target = [f32; CHUNK];
    #[inline]
    fn deref(&self) -> &[f32; CHUNK] {
        &self.0
    }
}

impl std::ops::DerefMut for Lanes {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32; CHUNK] {
        &mut self.0
    }
}

/// The dispatch level of the SIMD backend — which instruction set the
/// chunk loops use.
///
/// Levels are totally ordered by preference on each architecture; the
/// executor resolves one level per program at compile time (see
/// [`resolve`]) and [`crate::RegFile::set_simd`] clamps whatever it is
/// handed to the running CPU's capabilities, so a level held by a register
/// file is always safe to dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdLevel {
    /// Portable scalar loops (the autovectorized fallback); also the
    /// `POLYMAGE_SIMD=off` ablation path, which bypasses dispatch entirely.
    #[default]
    Scalar,
    /// 128-bit x86-64 loops (baseline on every x86-64 CPU).
    Sse2,
    /// 256-bit x86-64 loops (runtime-detected).
    Avx2,
    /// 128-bit aarch64 loops (baseline on every aarch64 CPU).
    Neon,
}

impl SimdLevel {
    /// Stable lowercase name (matches the `POLYMAGE_SIMD` spellings).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The SIMD knob of `CompileOptions`: either automatic per-process
/// detection or a forced level for ablation.
///
/// Forced levels are clamped to what the running CPU supports (forcing
/// `Avx2` on an SSE2-only machine falls back to the detected best), so a
/// forced option can never make dispatch unsound. The `POLYMAGE_SIMD`
/// environment variable, when set to anything but `auto`, overrides this
/// option process-wide — that is what the CI ablation legs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdOpt {
    /// Use the best level the CPU supports (the default).
    #[default]
    Auto,
    /// Force the scalar loops (bypass SIMD dispatch entirely).
    Off,
    /// Force 128-bit x86-64 loops.
    Sse2,
    /// Force 256-bit x86-64 loops.
    Avx2,
    /// Force aarch64 NEON loops.
    Neon,
}

impl From<SimdLevel> for SimdOpt {
    /// The option that forces `level` (`Scalar` forces the scalar loops).
    fn from(level: SimdLevel) -> SimdOpt {
        match level {
            SimdLevel::Scalar => SimdOpt::Off,
            SimdLevel::Sse2 => SimdOpt::Sse2,
            SimdLevel::Avx2 => SimdOpt::Avx2,
            SimdLevel::Neon => SimdOpt::Neon,
        }
    }
}

impl SimdOpt {
    /// Parses the `POLYMAGE_SIMD` spellings: `auto` (or empty) → `Auto`,
    /// `off`/`scalar`/`0`/`none` → `Off`, and the level names `sse2`,
    /// `avx2`, `neon` (case-insensitive). `None` for anything else.
    ///
    /// This is the single source of truth for the knob's grammar — the
    /// engine-level env override below and `polymage-core`'s centralized
    /// `POLYMAGE_*` validation both parse through it.
    pub fn parse_spelling(s: &str) -> Option<SimdOpt> {
        match s.to_ascii_lowercase().as_str() {
            "" | "auto" => Some(SimdOpt::Auto),
            "off" | "scalar" | "0" | "none" => Some(SimdOpt::Off),
            "sse2" => Some(SimdOpt::Sse2),
            "avx2" => Some(SimdOpt::Avx2),
            "neon" => Some(SimdOpt::Neon),
            _ => None,
        }
    }
}

/// The best [`SimdLevel`] the running CPU supports.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else if std::arch::is_x86_feature_detected!("sse2") {
            SimdLevel::Sse2
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Every level executable on this machine, scalar first. Proptests force
/// each of these and assert bit-identity against the scalar path.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut v = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            v.push(SimdLevel::Sse2);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(SimdLevel::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        v.push(SimdLevel::Neon);
    }
    v
}

/// Clamps a requested level to what the CPU can actually execute.
///
/// `Scalar` is always honored; an unavailable forced level falls back to
/// [`detect`] (never *up*: forcing `Sse2` on an AVX2 machine stays SSE2).
pub fn clamp_to_detected(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::Scalar || available_levels().contains(&level) {
        level
    } else {
        detect()
    }
}

/// The `POLYMAGE_SIMD` override, read once per process. `None` means unset
/// or `auto`.
fn env_override() -> Option<SimdLevel> {
    static ENV: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("POLYMAGE_SIMD").ok()?;
        match SimdOpt::parse_spelling(&raw) {
            Some(SimdOpt::Auto) => None,
            Some(SimdOpt::Off) => Some(SimdLevel::Scalar),
            Some(SimdOpt::Sse2) => Some(clamp_to_detected(SimdLevel::Sse2)),
            Some(SimdOpt::Avx2) => Some(clamp_to_detected(SimdLevel::Avx2)),
            Some(SimdOpt::Neon) => Some(clamp_to_detected(SimdLevel::Neon)),
            None => {
                // `core::options::env` reports malformed values through
                // diag too; this warning covers engine-only embedders.
                eprintln!(
                    "polymage: ignoring unknown POLYMAGE_SIMD value `{raw}` \
                     (expected off|scalar|sse2|avx2|neon|auto)"
                );
                None
            }
        }
    })
}

/// Resolves a compile-option knob to a concrete dispatch level.
///
/// Precedence: the `POLYMAGE_SIMD` environment override (for ablation and
/// CI) beats the option; otherwise the option is honored, clamped to the
/// CPU. The result is always executable on this machine.
pub fn resolve(opt: SimdOpt) -> SimdLevel {
    if let Some(forced) = env_override() {
        return forced;
    }
    match opt {
        SimdOpt::Auto => process_level(),
        SimdOpt::Off => SimdLevel::Scalar,
        SimdOpt::Sse2 => clamp_to_detected(SimdLevel::Sse2),
        SimdOpt::Avx2 => clamp_to_detected(SimdLevel::Avx2),
        SimdOpt::Neon => clamp_to_detected(SimdLevel::Neon),
    }
}

/// The per-process default level: `POLYMAGE_SIMD` if set, else [`detect`].
/// Computed once (at first engine/evaluator use) and cached.
pub fn process_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| env_override().unwrap_or_else(detect))
}

// ---------------------------------------------------------------------------
// Dispatch wrappers. Each returns `true` when the op was handled at the
// given level (vector body + scalar tail), `false` when the caller must run
// its scalar loop (Scalar level, or an op family the level does not cover).
//
// Safety: `level` must be executable on the running CPU. All callers take
// it from `RegFile::simd`, which `set_simd` clamps via `clamp_to_detected`.
// ---------------------------------------------------------------------------

/// Vectorized [`BinF`] over `d[..len] = a[..len] ⊕ b[..len]`.
/// `Mod` and `Pow` are not IEEE-single-instruction ops and stay scalar.
#[inline]
pub(crate) fn bin(
    level: SimdLevel,
    op: BinF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    if matches!(op, BinF::Mod | BinF::Pow) {
        return false;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::bin_avx2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::bin_sse2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::bin_neon(op, d, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`CmpF`] mask: `d[i] = (a[i] ⊲ b[i]) as f32`.
#[inline]
pub(crate) fn cmp(
    level: SimdLevel,
    op: CmpF,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::cmp_avx2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::cmp_sse2(op, d, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::cmp_neon(op, d, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized mask negation `d = 1.0 − a`.
#[inline]
pub(crate) fn mask_not(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::not_avx2(d, a, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::not_sse2(d, a, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::not_neon(d, a, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized lane select `d[i] = if m[i] != 0.0 { a[i] } else { b[i] }`.
#[inline]
pub(crate) fn select(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    m: &[f32; CHUNK],
    a: &[f32; CHUNK],
    b: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::select_avx2(d, m, a, b, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::select_sse2(d, m, a, b, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::select_neon(d, m, a, b, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`crate::Op::CastRound`]: round half away from zero.
#[inline]
pub(crate) fn cast_round(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::round_avx2(d, a, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::round_sse2(d, a, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::round_neon(d, a, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`crate::Op::CastSat`]: clamp to `[lo, hi]`, then round.
#[inline]
pub(crate) fn cast_sat(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    lo: f32,
    hi: f32,
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::sat_avx2(d, a, lo, hi, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::sat_sse2(d, a, lo, hi, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::sat_neon(d, a, lo, hi, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized chunk store with optional saturation and rounding (the
/// non-trivial arms of the executor's `store_lanes`). `dst` and `src` are
/// equal-length slices; `dst` may be unaligned (it points into an output
/// buffer).
#[inline]
pub(crate) fn store(
    level: SimdLevel,
    dst: &mut [f32],
    src: &[f32],
    sat: Option<(f32, f32)>,
    round: bool,
) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::store_avx2(dst, src, sat, round) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::store_sse2(dst, src, sat, round) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::store_neon(dst, src, sat, round) };
            true
        }
        _ => false,
    }
}

/// Vectorized constant-stride load: `d[i] = data[start + i·step]`
/// (the `m == 1` resolved-strided form, via hardware gather on AVX2).
///
/// Falls back (`false`) unless every index provably lies inside `data`
/// and within `i32` range — the scalar loop then reproduces the legacy
/// behavior exactly, including its panic on out-of-range indices.
#[inline]
pub(crate) fn strided_load(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    data: &[f32],
    start: i64,
    step: i64,
    len: usize,
) -> bool {
    if len == 0 {
        return false;
    }
    let last = start + (len as i64 - 1) * step;
    let (lo, hi) = (start.min(last), start.max(last));
    if lo < 0 || hi >= data.len() as i64 || hi > i32::MAX as i64 {
        return false;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::strided_avx2(d, data, start, step, len) };
            true
        }
        _ => false,
    }
}

/// Vectorized [`crate::UnF::Floor`] (`ceil == false`) or
/// [`crate::UnF::Ceil`] (`ceil == true`). Other unary ops stay scalar.
#[inline]
pub(crate) fn floor_ceil(
    level: SimdLevel,
    ceil: bool,
    d: &mut [f32; CHUNK],
    a: &[f32; CHUNK],
    len: usize,
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            unsafe { x86::floor_ceil_avx2(ceil, d, a, len) };
            true
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            unsafe { x86::floor_ceil_sse2(ceil, d, a, len) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            unsafe { neon::floor_ceil_neon(ceil, d, a, len) };
            true
        }
        _ => false,
    }
}

/// `f32::floor`/`f32::ceil` exactly as the portable scalar path computes
/// them. Kept out of line so that `#[target_feature]` callers cannot
/// inline it and re-lower it with their own instructions: on x86-64 the
/// baseline build calls `floorf`/`ceilf`, which may pass a signaling NaN
/// through, while `roundss` would quiet it.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn scalar_floor_ceil(ceil: bool, x: f32) -> f32 {
    if ceil {
        x.ceil()
    } else {
        x.floor()
    }
}

// ---------------------------------------------------------------------------
// Data-dependent indexing: gathers and reduction-scatter indices.
//
// A data-dependent access computes, for every lane `i`,
//
//   flat[i] = base
//           + Σ_dims (clamp(round_ties_away(regs[reg][i]) as i64,
//                           org, org + size − 1) − org) · stride
//           + ((q·(x0 + i) + o) div m − org) · stride   (chunk-axis term)
//
// with the register dimensions clamped into the buffer and the affine
// chunk-axis term not clamped (an out-of-range affine index panics at the
// load, as the scalar loop always did). Every level computes exactly
// these integers: the rounding uses the exact `cast_round` sequences, the
// chunk-axis floor division is stepped (one division per chunk, none per
// lane), and on AVX2 an access whose every index is proven to lie in
// `[0, len)` and within `i32` runs in 32-bit lanes and loads with
// `vgatherdps`.
// ---------------------------------------------------------------------------

/// One register-indexed dimension of a data-dependent access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexDim {
    /// Register holding the (float) index of every lane.
    pub(crate) reg: usize,
    /// Buffer origin of the dimension.
    pub(crate) org: i64,
    /// Buffer extent of the dimension; indices clamp to
    /// `[org, org + size − 1]`.
    pub(crate) size: i64,
    /// Element stride of the dimension.
    pub(crate) stride: i64,
}

/// The affine chunk-axis term of a data-dependent access at chunk start
/// `x0`: lane `i` adds `((q·(x0 + i) + o) div m − org) · stride`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AxisTerm {
    pub(crate) x0: i64,
    pub(crate) q: i64,
    pub(crate) o: i64,
    pub(crate) m: i64,
    pub(crate) stride: i64,
    pub(crate) org: i64,
}

impl AxisTerm {
    /// Quotient and remainder of lane 0, `(q·x0 + o − org·m) divmod m`
    /// (the quotient is lane 0's index relative to `org`), or `None` when
    /// stepping does not apply: a non-positive divisor or an overflow.
    fn start(&self) -> Option<(i64, i64)> {
        if self.m < 1 {
            return None;
        }
        let u = self
            .q
            .checked_mul(self.x0)?
            .checked_add(self.o)?
            .checked_sub(self.org.checked_mul(self.m)?)?;
        Some((u.div_euclid(self.m), u.rem_euclid(self.m)))
    }
}

/// One data-dependent access over a chunk (see the section comment).
pub(crate) struct Access<'a> {
    /// The kernel's registers holding the index lanes (for a load: the
    /// registers below its destination).
    pub(crate) regs: &'a [Lanes],
    /// Flat offset of the chunk-invariant dimensions.
    pub(crate) base: i64,
    /// The register-indexed dimensions.
    pub(crate) dims: &'a [IndexDim],
    /// The affine chunk-axis term, if a dimension varies with the chunk.
    pub(crate) axis: Option<AxisTerm>,
}

/// Loads `d[i] = data[flat[i]]` for lanes `0..len` of `acc`. Panics, like
/// the scalar loop, when an index falls outside `data`.
pub(crate) fn gather(
    level: SimdLevel,
    d: &mut [f32; CHUNK],
    data: &[f32],
    acc: &Access<'_>,
    len: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        if let Some(plan) = Plan32::prove(acc, len, data.len()) {
            let mut idx = [0i32; CHUNK];
            // SAFETY: `level` is a detected level (see the dispatch
            // wrappers); `plan` was proven for `acc` and `len` against
            // `data.len()`, so every index `indices_avx2` writes for lanes
            // `0..len` lies inside `data`.
            unsafe {
                x86::indices_avx2(&mut idx, &plan, acc, len);
                x86::gather_avx2(d, data, &idx, len);
            }
            return;
        }
    }
    let mut flat = [0i64; CHUNK];
    exact_indices(level, acc, len, &mut flat);
    for (v, &f) in d[..len].iter_mut().zip(&flat[..len]) {
        *v = data[f as usize];
    }
}

/// The flat indices of lanes `0..len` of `acc` into a buffer of `bound`
/// elements (the reduction scatter's target cells).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn flat_indices(
    level: SimdLevel,
    acc: &Access<'_>,
    len: usize,
    bound: usize,
    flat: &mut [i64; CHUNK],
) {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        if let Some(plan) = Plan32::prove(acc, len, bound) {
            let mut idx = [0i32; CHUNK];
            // SAFETY: `level` is a detected level; `plan` was proven for
            // `acc` and `len`.
            unsafe { x86::indices_avx2(&mut idx, &plan, acc, len) };
            for (f, &i) in flat[..len].iter_mut().zip(&idx[..len]) {
                *f = i as i64;
            }
            return;
        }
    }
    exact_indices(level, acc, len, flat);
}

/// The flat indices in 64-bit lanes, at any level: the reference the
/// 32-bit path must equal, and the fallback when it cannot be proven.
fn exact_indices(level: SimdLevel, acc: &Access<'_>, len: usize, flat: &mut [i64; CHUNK]) {
    let base = acc.base;
    match acc.axis.map(|a| (a, a.start())) {
        None => flat[..len].fill(base),
        Some((a, Some((mut qt, mut r)))) => {
            let (dq, dr) = (a.q.div_euclid(a.m), a.q.rem_euclid(a.m));
            for f in &mut flat[..len] {
                *f = base + qt * a.stride;
                qt += dq;
                r += dr;
                if r >= a.m {
                    r -= a.m;
                    qt += 1;
                }
            }
        }
        Some((a, None)) => {
            for (i, f) in flat[..len].iter_mut().enumerate() {
                *f = base + ((a.q * (a.x0 + i as i64) + a.o).div_euclid(a.m) - a.org) * a.stride;
            }
        }
    }
    let mut rounded = Lanes::zeroed();
    for dim in acc.dims {
        let src = &acc.regs[dim.reg].0;
        if !cast_round(level, &mut rounded.0, src, len) {
            for (r, &v) in rounded[..len].iter_mut().zip(&src[..len]) {
                *r = round_ties_away(v);
            }
        }
        let hi = dim.org + dim.size - 1;
        for (f, &r) in flat[..len].iter_mut().zip(&rounded[..len]) {
            *f += ((r as i64).clamp(dim.org, hi) - dim.org) * dim.stride;
        }
    }
}

/// A data-dependent access proven to fit 32-bit lanes: every flat index
/// of lanes `0..len` lies in `[0, bound)` with `bound ≤ 2³¹`, so every
/// partial sum of the index does too. Register dimensions clamp in the
/// float domain, which equals the integer clamp because both clamp bounds
/// are integers of magnitude at most 2²⁴ (exact in `f32`).
#[cfg(target_arch = "x86_64")]
struct Plan32 {
    base: i32,
    axis: Option<Axis32>,
}

/// The stepped chunk-axis term of [`Plan32`] for one 8-lane block: lane
/// `j` holds quotient `qt[j]` and remainder `r[j]` of its `(q·x + o −
/// org·m) divmod m`; the next block adds `8q divmod m` with one carry.
#[cfg(target_arch = "x86_64")]
struct Axis32 {
    qt: [i32; 8],
    r: [i32; 8],
    dq8: i32,
    dr8: i32,
    m: i32,
    stride: i32,
}

#[cfg(target_arch = "x86_64")]
impl Plan32 {
    /// Largest clamp bound that is exact in `f32` (2²⁴).
    const F32_EXACT: i64 = 1 << 24;

    fn prove(acc: &Access<'_>, len: usize, bound: usize) -> Option<Plan32> {
        let base = acc.base;
        if len == 0 || bound > 1usize << 31 || base < 0 {
            return None;
        }
        let mut reg_max = 0i64;
        for dim in acc.dims {
            let hi = dim.org.checked_add(dim.size)? - 1;
            if dim.size < 1 || dim.stride < 0 || dim.org < -Self::F32_EXACT || hi > Self::F32_EXACT
            {
                return None;
            }
            reg_max = reg_max.checked_add((dim.size - 1).checked_mul(dim.stride)?)?;
        }
        let (lo, hi, axis) = match acc.axis.map(|a| (a, a.start())) {
            None => (base, base, None),
            // The scalar loop divides by `m` even where the term is
            // multiplied by zero; leave those shapes to it.
            Some((_, None)) => return None,
            Some((a, Some(_))) if a.stride == 0 => (base, base, None),
            Some((a, Some((qt0, r0)))) => {
                if a.stride < 0 {
                    return None;
                }
                let span = a.q.checked_mul(len as i64 - 1)?.checked_add(r0)?;
                let qt_last = qt0.checked_add(span.div_euclid(a.m))?;
                let (qmin, qmax) = (qt0.min(qt_last), qt0.max(qt_last));
                let lo = base.checked_add(qmin.checked_mul(a.stride)?)?;
                let hi = base.checked_add(qmax.checked_mul(a.stride)?)?;
                let (dq, dr) = (a.q.div_euclid(a.m), a.q.rem_euclid(a.m));
                let q8 = a.q.checked_mul(8)?;
                let mut ax = Axis32 {
                    qt: [0; 8],
                    r: [0; 8],
                    dq8: i32::try_from(q8.div_euclid(a.m)).ok()?,
                    dr8: i32::try_from(q8.rem_euclid(a.m)).ok()?,
                    m: i32::try_from(a.m).ok()?,
                    stride: i32::try_from(a.stride).ok()?,
                };
                // Lanes past `len` in the first block are computed but
                // never used; wrapping keeps them harmless.
                let (mut qt, mut r) = (qt0, r0);
                for j in 0..8 {
                    ax.qt[j] = qt as i32;
                    ax.r[j] = r as i32;
                    qt = qt.wrapping_add(dq);
                    r += dr;
                    if r >= a.m {
                        r -= a.m;
                        qt = qt.wrapping_add(1);
                    }
                }
                (lo, hi, Some(ax))
            }
        };
        if lo < 0 || hi.checked_add(reg_max)? >= bound as i64 {
            return None;
        }
        Some(Plan32 {
            base: i32::try_from(base).ok()?,
            axis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_consistent() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detect()));
        assert!(levels.contains(&process_level()));
        for &l in &levels {
            assert_eq!(clamp_to_detected(l), l, "available level {l} must stick");
        }
        // clamping an unavailable level must yield something executable
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert!(levels.contains(&clamp_to_detected(l)));
        }
    }

    #[test]
    fn resolve_honors_off() {
        // With no env override the knob decides.
        if std::env::var("POLYMAGE_SIMD").is_err() {
            assert_eq!(resolve(SimdOpt::Off), SimdLevel::Scalar);
            assert_eq!(resolve(SimdOpt::Auto), process_level());
        } else {
            // Under an env override every option resolves to the override.
            let forced = resolve(SimdOpt::Auto);
            assert_eq!(resolve(SimdOpt::Off), forced);
        }
    }

    #[test]
    fn names_roundtrip() {
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ] {
            assert!(!l.name().is_empty());
            assert_eq!(format!("{l}"), l.name());
        }
    }
}
