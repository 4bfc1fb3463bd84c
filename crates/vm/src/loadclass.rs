//! Load classification: specialized access forms for [`crate::Op::Load`].
//!
//! The legacy evaluator re-derives the shape of every load from its
//! `Vec<IdxPlan>` on every chunk. For optimized kernels the shape is
//! resolved **once per row** into a [`ResolvedLoad`] — the base offset from
//! all non-varying dimensions is folded ahead of time and each access form
//! gets its own tight loop:
//!
//! - **broadcast** — the plan is chunk-invariant; the value is computed in
//!   the scalar preamble ([`ResolvedLoad::Uniform`]);
//! - **contiguous** — unit-stride along the chunk axis (`q == 1, m == 1`,
//!   innermost buffer dimension): a straight `copy_from_slice`;
//! - **constant-stride** — a single affine dimension varies along the
//!   chunk axis, `(q·x + o) div m`: with `m == 1` a hardware gather at
//!   the constant step ([`crate::simd::strided_load`], AVX2) when every
//!   index is in bounds; a floor divisor, or an index that wrapper cannot
//!   prove, is an axis-only [`crate::simd::gather`] (a stepped quotient
//!   with no per-lane division, `vgatherdps` where proven, otherwise the
//!   bounds-checked load, which panics on an out-of-range index);
//! - **gather** — data-dependent register indices, rounded and clamped
//!   per lane by [`crate::simd::gather`] (a hardware gather on AVX2);
//! - **diagonal** — two or more affine dimensions vary along the chunk
//!   axis (accesses like `g(x, x)`): the one remaining per-lane loop.
//!
//! Every form computes exactly the indices the legacy path computes, so
//! values are bit-identical.
//!
//! [`classify`] is the compile-time counterpart used for reporting: it tags
//! each load with the class it will take under the nominal chunk axis (the
//! innermost loop dimension). The executor picks the chunk axis per region
//! instead (the innermost dimension with at least 32 points, else the
//! longest), so a kernel over a short innermost dimension — 3 colour
//! channels, 8 pyramid levels — runs along an outer axis, where its
//! "contiguous" loads stride. The runtime resolutions are tallied
//! separately (`RunStats::loads`, the `vm.loadclass.*` counters).

use crate::eval::{round_ties_away, ChunkCtx, RegFile};
use crate::simd::{Access, AxisTerm, IndexDim};
use crate::{BufId, IdxPlan, RegId};

/// Compile-time access class of one load (under the nominal chunk axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadClass {
    /// Chunk-invariant plan; one element, broadcast.
    Broadcast,
    /// Unit-stride along the chunk axis — slice copy.
    Contiguous,
    /// Constant (non-unit) stride or floor-divided index along the chunk
    /// axis, including diagonal multi-dimension accesses.
    Strided,
    /// Data-dependent register index on at least one dimension.
    Gather,
}

/// Histogram of load classes across a kernel or program: compile-time
/// classes under the nominal chunk axis in optimizer reports, runtime
/// resolutions in [`crate::RunStats::loads`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadHistogram {
    /// Chunk-invariant loads.
    pub broadcast: usize,
    /// Unit-stride slice copies.
    pub contiguous: usize,
    /// Constant-stride walks.
    pub strided: usize,
    /// Data-dependent gathers.
    pub gather: usize,
}

impl LoadHistogram {
    /// Tallies one load.
    pub fn add(&mut self, class: LoadClass) {
        match class {
            LoadClass::Broadcast => self.broadcast += 1,
            LoadClass::Contiguous => self.contiguous += 1,
            LoadClass::Strided => self.strided += 1,
            LoadClass::Gather => self.gather += 1,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LoadHistogram) {
        self.broadcast += other.broadcast;
        self.contiguous += other.contiguous;
        self.strided += other.strided;
        self.gather += other.gather;
    }

    /// Total loads tallied.
    pub fn total(&self) -> usize {
        self.broadcast + self.contiguous + self.strided + self.gather
    }

    /// Loads that take a specialized (non-generic) path: everything but
    /// gathers still beats the legacy plan walk, but "specialized" here
    /// counts the classes with a dedicated tight loop.
    pub fn specialized(&self) -> usize {
        self.broadcast + self.contiguous + self.strided
    }
}

impl std::fmt::Display for LoadHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "contig {} / broadcast {} / strided {} / gather {}",
            self.contiguous, self.broadcast, self.strided, self.gather
        )
    }
}

/// Classifies a load plan at compile time, given the per-register
/// dimension-dependence masks and the nominal chunk axis `inner`.
///
/// The runtime chunk axis is chosen per region, so this is the *expected*
/// class (the innermost dimension is the overwhelmingly common choice); the
/// evaluator re-resolves per row and always takes the correct loop.
pub(crate) fn classify(plan: &[IdxPlan], dep: &[u32], inner: usize) -> LoadClass {
    let bit = 1u32 << inner.min(31);
    let mut has_reg = false;
    let mut varying = false;
    let mut inner_affine: Vec<(usize, i64, i64)> = Vec::new(); // (plan dim, q, m)
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { dim, q, .. } if dim == Some(inner) && q != 0 => {
                varying = true;
                if let IdxPlan::Affine { q, m, .. } = *p {
                    inner_affine.push((d, q, m));
                }
            }
            IdxPlan::Affine { .. } => {}
            IdxPlan::Reg(r) => {
                has_reg = true;
                if dep.get(r.0 as usize).copied().unwrap_or(0) & bit != 0 {
                    varying = true;
                }
            }
        }
    }
    if !varying {
        return LoadClass::Broadcast;
    }
    if has_reg {
        return LoadClass::Gather;
    }
    match inner_affine.as_slice() {
        // Unit stride iff the varying dimension is the innermost buffer
        // dimension (row-major ⇒ stride 1) with q == 1, m == 1.
        [(d, 1, 1)] if *d == plan.len() - 1 => LoadClass::Contiguous,
        _ => LoadClass::Strided,
    }
}

/// A load plan resolved against concrete views and a concrete chunk axis,
/// valid for one row (fixed outer coordinates).
#[derive(Debug, Clone)]
pub(crate) enum ResolvedLoad {
    /// Chunk-invariant: evaluated in the scalar preamble.
    Uniform,
    /// Unit stride along the chunk axis: flat index = `shift + x`.
    Contig {
        /// Precomputed `base + o − origin` (add the chunk-axis coordinate).
        shift: i64,
    },
    /// One affine dimension varies along the chunk axis.
    Strided {
        /// Coefficient.
        q: i64,
        /// Offset.
        o: i64,
        /// Floor divisor.
        m: i64,
        /// Element stride of the varying dimension.
        stride: i64,
        /// Origin of the varying dimension.
        org: i64,
        /// Flat offset from all non-varying dimensions.
        base: i64,
    },
    /// Data-dependent register indices (plus an optional affine chunk-axis
    /// term).
    Gather {
        /// Flat offset from non-varying affine dimensions.
        base: i64,
        /// The register-indexed dimensions.
        dims: Vec<IndexDim>,
        /// Affine chunk-axis term `(q, o, m, stride, origin)`, if any.
        inner: Option<(i64, i64, i64, i64, i64)>,
    },
    /// Two or more affine dimensions vary along the chunk axis.
    Multi {
        /// Flat offset from non-varying dimensions.
        base: i64,
        /// Varying terms `(q, o, m, stride, origin)`, in plan order.
        dims: Vec<(i64, i64, i64, i64, i64)>,
    },
}

impl ResolvedLoad {
    /// The access class this resolved form corresponds to (used by the
    /// runtime resolution counters; matches [`classify`]'s taxonomy, with
    /// diagonal `Multi` accesses tallied as strided).
    pub(crate) fn class(&self) -> LoadClass {
        match self {
            ResolvedLoad::Uniform => LoadClass::Broadcast,
            ResolvedLoad::Contig { .. } => LoadClass::Contiguous,
            ResolvedLoad::Strided { .. } | ResolvedLoad::Multi { .. } => LoadClass::Strided,
            ResolvedLoad::Gather { .. } => LoadClass::Gather,
        }
    }
}

/// Resolves a lane-varying load plan against the current views and chunk
/// axis. Must only be called for plans that vary along `ctx.inner`.
pub(crate) fn resolve_load(ctx: &ChunkCtx<'_>, buf: BufId, plan: &[IdxPlan]) -> ResolvedLoad {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    debug_assert_eq!(plan.len(), view.sizes.len());
    let mut base = 0i64;
    let mut inner_aff: Option<(i64, i64, i64, i64, i64)> = None; // (q,o,m,stride,org)
    let mut extra: Vec<(i64, i64, i64, i64, i64)> = Vec::new();
    let mut reg_dims: Vec<IndexDim> = Vec::new();
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { dim, q, o, m } => {
                if dim == Some(ctx.inner) && q != 0 {
                    let term = (q, o, m, view.strides[d], view.origin[d]);
                    if inner_aff.is_none() {
                        inner_aff = Some(term);
                    } else {
                        extra.push(term);
                    }
                } else {
                    let coord = dim.map_or(0, |dd| ctx.coords[dd]);
                    let idx = (q * coord + o).div_euclid(m);
                    debug_assert!(
                        idx >= view.origin[d] && idx < view.origin[d] + view.sizes[d],
                        "affine index {idx} out of buffer range on dim {d} \
                         (origin {}, size {})",
                        view.origin[d],
                        view.sizes[d]
                    );
                    base += (idx - view.origin[d]).clamp(0, view.sizes[d] - 1) * view.strides[d];
                }
            }
            IdxPlan::Reg(r) => {
                reg_dims.push(IndexDim {
                    reg: r.0 as usize,
                    org: view.origin[d],
                    size: view.sizes[d],
                    stride: view.strides[d],
                });
            }
        }
    }
    if !extra.is_empty() {
        debug_assert!(
            reg_dims.is_empty(),
            "diagonal access mixed with register indices"
        );
        let mut dims = vec![inner_aff.expect("first chunk-axis plan dim")];
        dims.extend(extra);
        return ResolvedLoad::Multi { base, dims };
    }
    if reg_dims.is_empty() {
        let (q, o, m, stride, org) = inner_aff.expect("varying load has a chunk-axis dim");
        if q == 1 && m == 1 && stride == 1 {
            ResolvedLoad::Contig {
                shift: base + o - org,
            }
        } else {
            ResolvedLoad::Strided {
                q,
                o,
                m,
                stride,
                org,
                base,
            }
        }
    } else {
        ResolvedLoad::Gather {
            base,
            dims: reg_dims,
            inner: inner_aff,
        }
    }
}

/// Executes one lane-varying load through its resolved form.
pub(crate) fn exec_resolved(
    ctx: &ChunkCtx<'_>,
    regs: &mut RegFile,
    dst: RegId,
    buf: BufId,
    r: &ResolvedLoad,
    len: usize,
) {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    let x0 = ctx.coords[ctx.inner];
    let d = dst.0 as usize;
    match *r {
        ResolvedLoad::Uniform => unreachable!("uniform load dispatched to varying body"),
        ResolvedLoad::Contig { shift } => {
            let start = shift + x0;
            debug_assert!(start >= 0);
            let start = start as usize;
            regs.regs[d][..len].copy_from_slice(&view.data[start..start + len]);
        }
        ResolvedLoad::Strided {
            q,
            o,
            m,
            stride,
            org,
            base,
        } => {
            let lvl = regs.simd;
            let dreg = &mut regs.regs[d];
            // With no floor division the lane index is affine in the lane
            // number: one constant step, a hardware gather on AVX2.
            if m == 1 {
                let start = base + (q * x0 + o - org) * stride;
                let step = q * stride;
                if crate::simd::strided_load(lvl, &mut dreg.0, view.data, start, step, len) {
                    return;
                }
            }
            // A floor divisor, or an index the wrapper above cannot prove
            // in bounds: an axis-only gather (stepped quotient, proven
            // hardware gather or the bounds-checked load).
            let acc = Access {
                regs: &[],
                base,
                dims: &[],
                axis: Some(AxisTerm {
                    x0,
                    q,
                    o,
                    m,
                    stride,
                    org,
                }),
            };
            crate::simd::gather(lvl, &mut dreg.0, view.data, &acc, len);
        }
        ResolvedLoad::Gather {
            base,
            ref dims,
            inner,
        } => {
            let axis = inner.map(|(q, o, m, stride, org)| AxisTerm {
                x0,
                q,
                o,
                m,
                stride,
                org,
            });
            let lvl = regs.simd;
            // SSA: index registers precede the destination.
            let (srcs, rest) = regs.regs.split_at_mut(d);
            let acc = Access {
                regs: srcs,
                base,
                dims,
                axis,
            };
            crate::simd::gather(lvl, &mut rest[0].0, view.data, &acc, len);
        }
        ResolvedLoad::Multi { base, ref dims } => {
            let dreg = &mut regs.regs[d];
            for (i, v) in dreg[..len].iter_mut().enumerate() {
                let x = x0 + i as i64;
                let mut idx = base;
                for &(q, o, m, st, org) in dims {
                    idx += ((q * x + o).div_euclid(m) - org) * st;
                }
                *v = view.data[idx as usize];
            }
        }
    }
}

/// Scalar (lane-0) evaluation of a chunk-invariant load — the preamble
/// counterpart of [`exec_resolved`]. Computes exactly the element the
/// legacy broadcast path reads.
pub(crate) fn load_scalar(ctx: &ChunkCtx<'_>, regs: &RegFile, buf: BufId, plan: &[IdxPlan]) -> f32 {
    let view = ctx.bufs[buf.0]
        .as_ref()
        .unwrap_or_else(|| panic!("load from unresolved buffer {buf:?}"));
    debug_assert_eq!(plan.len(), view.sizes.len());
    let mut flat = 0i64;
    for (d, p) in plan.iter().enumerate() {
        match *p {
            IdxPlan::Affine { dim, q, o, m } => {
                let coord = dim.map_or(0, |dd| ctx.coords[dd]);
                let idx = (q * coord + o).div_euclid(m);
                debug_assert!(
                    idx >= view.origin[d] && idx < view.origin[d] + view.sizes[d],
                    "affine index {idx} out of buffer range on dim {d} \
                     (origin {}, size {})",
                    view.origin[d],
                    view.sizes[d]
                );
                flat += (idx - view.origin[d]).clamp(0, view.sizes[d] - 1) * view.strides[d];
            }
            IdxPlan::Reg(r) => {
                let raw = round_ties_away(regs.regs[r.0 as usize][0]) as i64;
                let clamped = raw.clamp(view.origin[d], view.origin[d] + view.sizes[d] - 1);
                flat += (clamped - view.origin[d]) * view.strides[d];
            }
        }
    }
    view.data[flat as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_forms() {
        // dep: r0 uniform, r1 varies with dim 1
        let dep = [0u32, 0b10u32];
        let inner = 1usize;
        let contig = vec![
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            },
            IdxPlan::Affine {
                dim: Some(1),
                q: 1,
                o: -1,
                m: 1,
            },
        ];
        assert_eq!(classify(&contig, &dep, inner), LoadClass::Contiguous);
        let strided = vec![
            IdxPlan::Affine {
                dim: Some(1),
                q: 2,
                o: 0,
                m: 1,
            },
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            },
        ];
        assert_eq!(classify(&strided, &dep, inner), LoadClass::Strided);
        let bcast = vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 1,
        }];
        assert_eq!(classify(&bcast, &dep, inner), LoadClass::Broadcast);
        let uniform_gather = vec![IdxPlan::Reg(RegId(0))];
        assert_eq!(classify(&uniform_gather, &dep, inner), LoadClass::Broadcast);
        let gather = vec![IdxPlan::Reg(RegId(1))];
        assert_eq!(classify(&gather, &dep, inner), LoadClass::Gather);
    }

    #[test]
    fn histogram_tallies() {
        let mut h = LoadHistogram::default();
        h.add(LoadClass::Contiguous);
        h.add(LoadClass::Contiguous);
        h.add(LoadClass::Gather);
        h.add(LoadClass::Broadcast);
        assert_eq!(h.total(), 4);
        assert_eq!(h.specialized(), 3);
        let mut h2 = LoadHistogram::default();
        h2.add(LoadClass::Strided);
        h.merge(&h2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.strided, 1);
    }
}
