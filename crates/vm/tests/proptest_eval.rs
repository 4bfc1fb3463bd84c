//! Property-based tests for the chunk evaluator: chunked evaluation over
//! any chunk axis must agree with a direct scalar computation, and load
//! plans must agree with naive indexing. Every value-producing property
//! runs at each SIMD level the host supports — the vector loops must be
//! bit-identical to the scalar reference.

use polymage_vm::*;
use proptest::prelude::*;

fn view_1d(data: &[f32]) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
    (vec![0], vec![1], vec![data.len() as i64])
}

/// A 1-D view whose element 0 sits at coordinate `x0`.
fn view_at(data: &[f32], x0: i64) -> BufView<'_> {
    BufView {
        data,
        origin: vec![x0],
        strides: vec![1],
        sizes: vec![data.len() as i64],
    }
}

proptest! {
    /// Affine loads `(q·x + o)/m` equal naive gather for every chunk split.
    #[test]
    fn affine_loads_match_naive(
        q in 1i64..4,
        oo in 0i64..5,
        m in 1i64..4,
        x0 in 0i64..20,
        len in 1usize..64,
    ) {
        let data: Vec<f32> = (0..512).map(|i| (i * 3 % 97) as f32).collect();
        let (origin, strides, sizes) = view_1d(&data);
        // ensure indices stay in range
        let max_idx = (q * (x0 + len as i64 - 1) + oo) / m;
        prop_assume!(max_idx < 512);
        let k = Kernel {
            ops: vec![Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![IdxPlan::Affine { dim: Some(0), q, o: oo, m }],
            }],
            nregs: 1,
            meta: None,
            outs: vec![RegId(0)],
        };
        let view = polymage_vm::ChunkCtx {
            coords: &[x0],
            len,
            inner: 0,
            bufs: &[Some(polymage_vm::BufView {
                data: &data,
                origin: origin.clone(),
                strides: strides.clone(),
                sizes: sizes.clone(),
            })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &view, &mut regs);
            for i in 0..len {
                let idx = (q * (x0 + i as i64) + oo).div_euclid(m);
                prop_assert_eq!(regs.reg(RegId(0))[i], data[idx as usize]);
            }
        }
    }

    /// Arithmetic over chunks equals scalar arithmetic per lane.
    #[test]
    fn chunk_arithmetic_matches_scalar(
        vals in proptest::collection::vec(-100.0f32..100.0, 1..64),
        c in -10.0f32..10.0,
    ) {
        let len = vals.len();
        let data = vals.clone();
        let k = Kernel {
            ops: vec![
                Op::Load {
                    dst: RegId(0),
                    buf: BufId(0),
                    plan: vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }],
                },
                Op::ConstF { dst: RegId(1), val: c },
                Op::BinF { op: BinF::Mul, dst: RegId(2), a: RegId(0), b: RegId(1) },
                Op::BinF { op: BinF::Add, dst: RegId(3), a: RegId(2), b: RegId(0) },
                Op::UnF { op: UnF::Abs, dst: RegId(4), a: RegId(3) },
                Op::BinF { op: BinF::Max, dst: RegId(5), a: RegId(4), b: RegId(1) },
            ],
            nregs: 6,
            meta: None,
            outs: vec![RegId(5)],
        };
        let (origin, strides, sizes) = view_1d(&data);
        let ctx = ChunkCtx {
            coords: &[0],
            len,
            inner: 0,
            bufs: &[Some(BufView { data: &data, origin, strides, sizes })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &ctx, &mut regs);
            for (i, &v) in vals.iter().enumerate().take(len) {
                let want = (v * c + v).abs().max(c);
                prop_assert_eq!(regs.reg(RegId(5))[i], want);
            }
        }
    }

    /// Masks and selects implement boolean algebra per lane.
    #[test]
    fn mask_algebra(vals in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
        let len = vals.len();
        let data = vals.clone();
        // select(!(v > 0 && v < 5), -1, v)
        let k = Kernel {
            ops: vec![
                Op::Load {
                    dst: RegId(0),
                    buf: BufId(0),
                    plan: vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }],
                },
                Op::ConstF { dst: RegId(1), val: 0.0 },
                Op::ConstF { dst: RegId(2), val: 5.0 },
                Op::CmpMask { op: CmpF::Gt, dst: RegId(3), a: RegId(0), b: RegId(1) },
                Op::CmpMask { op: CmpF::Lt, dst: RegId(4), a: RegId(0), b: RegId(2) },
                Op::MaskAnd { dst: RegId(5), a: RegId(3), b: RegId(4) },
                Op::MaskNot { dst: RegId(6), a: RegId(5) },
                Op::ConstF { dst: RegId(7), val: -1.0 },
                Op::SelectF { dst: RegId(8), mask: RegId(6), a: RegId(7), b: RegId(0) },
            ],
            nregs: 9,
            meta: None,
            outs: vec![RegId(8)],
        };
        let (origin, strides, sizes) = view_1d(&data);
        let ctx = ChunkCtx {
            coords: &[0],
            len,
            inner: 0,
            bufs: &[Some(BufView { data: &data, origin, strides, sizes })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &ctx, &mut regs);
            for (i, &v) in vals.iter().enumerate().take(len) {
                let want = if !(v > 0.0 && v < 5.0) { -1.0 } else { v };
                prop_assert_eq!(regs.reg(RegId(8))[i], want);
            }
        }
    }

    /// Chunking a 2-D load along either axis yields the same values.
    #[test]
    fn chunk_axis_equivalence(rows in 2i64..8, cols in 2i64..8, ox in 0i64..2, oy in 0i64..2) {
        let n = (rows * cols) as usize;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mk = || Kernel {
            ops: vec![Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![
                    IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 },
                    IdxPlan::Affine { dim: Some(1), q: 1, o: 0, m: 1 },
                ],
            }],
            nregs: 1,
            meta: None,
            outs: vec![RegId(0)],
        };
        let view = || BufView {
            data: &data,
            origin: vec![0, 0],
            strides: vec![cols, 1],
            sizes: vec![rows, cols],
        };
        for level in available_simd_levels() {
        // chunk along axis 1 (rows of the buffer)
        let mut got_rowwise = vec![0.0f32; n];
        {
            let bufs = [Some(view())];
            let mut regs = RegFile::new();
            regs.set_simd(level);
            for x in ox..rows {
                let len = (cols - oy) as usize;
                let ctx = ChunkCtx { coords: &[x, oy], len, inner: 1, bufs: &bufs };
                eval_kernel(&mk(), &ctx, &mut regs);
                for i in 0..len {
                    got_rowwise[(x * cols + oy + i as i64) as usize] =
                        regs.reg(RegId(0))[i];
                }
            }
        }
        // chunk along axis 0 (columns of the buffer, strided loads —
        // the AVX2 gather path when the level allows it)
        let mut got_colwise = vec![0.0f32; n];
        {
            let bufs = [Some(view())];
            let mut regs = RegFile::new();
            regs.set_simd(level);
            for y in oy..cols {
                let len = (rows - ox) as usize;
                let ctx = ChunkCtx { coords: &[ox, y], len, inner: 0, bufs: &bufs };
                eval_kernel(&mk(), &ctx, &mut regs);
                for i in 0..len {
                    got_colwise[((ox + i as i64) * cols + y) as usize] =
                        regs.reg(RegId(0))[i];
                }
            }
        }
        for x in ox..rows {
            for y in oy..cols {
                let i = (x * cols + y) as usize;
                prop_assert_eq!(got_rowwise[i], data[i]);
                prop_assert_eq!(got_colwise[i], data[i]);
            }
        }
        }
    }

    /// Data-dependent gathers `buf[round(r0), (q·x + o) div m, round(r1)]`
    /// on a buffer with negative origins: index lanes mix adversarial
    /// values (NaN, ±inf, ties, |v| ≥ 2³¹, one past either bound) with
    /// random ones; every level equals the naive per-lane indexing, through
    /// the legacy and the optimized evaluation paths alike.
    #[test]
    fn gathers_match_naive_at_every_level(
        q in 1i64..3,
        m in 1i64..9,
        o in -9i64..1,
        shift in 0i64..8,
        len in 1usize..129,
        picks in proptest::collection::vec((0usize..16, -12.0f32..12.0), 256..257),
    ) {
        const SPECIAL: [f32; 16] = [
            f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.5, -0.5, 2.5, -3.5,
            2147483648.0, -2147483648.0, 3.0e9, -1.0e20, -5.0, 2.0, -4.5, 1.5,
        ];
        let (org, size) = ([-4i64, -140, -2], [6i64, 280, 4]);
        let strides = [size[1] * size[2], size[2], 1];
        let data: Vec<f32> = (0..size.iter().product::<i64>()).map(|i| i as f32 - 0.5).collect();
        let lane = |(k, r): (usize, f32)| if k < 6 { SPECIAL[(k * 7 + r.to_bits() as usize) % 16] } else { r };
        let a: Vec<f32> = picks[..128].iter().map(|&p| lane(p)).collect();
        let b: Vec<f32> = picks[128..].iter().map(|&p| lane(p)).collect();
        let x0 = (org[1] * m - o + q - 1).div_euclid(q) + shift;
        let contig = || vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }];
        let k = Kernel {
            ops: vec![
                Op::Load { dst: RegId(0), buf: BufId(1), plan: contig() },
                Op::Load { dst: RegId(1), buf: BufId(2), plan: contig() },
                Op::Load {
                    dst: RegId(2),
                    buf: BufId(0),
                    plan: vec![
                        IdxPlan::Reg(RegId(0)),
                        IdxPlan::Affine { dim: Some(0), q, o, m },
                        IdxPlan::Reg(RegId(1)),
                    ],
                },
            ],
            nregs: 3,
            meta: None,
            outs: vec![RegId(2)],
        };
        let mut opt = k.clone();
        optimize_kernel(&mut opt, 1, &[None], "gather".into());
        let bufs = [
            Some(BufView { data: &data, origin: org.to_vec(), strides: strides.to_vec(), sizes: size.to_vec() }),
            Some(view_at(&a, x0)),
            Some(view_at(&b, x0)),
        ];
        let ctx = ChunkCtx { coords: &[x0], len, inner: 0, bufs: &bufs };
        for kernel in [&k, &opt] {
            for level in available_simd_levels() {
                let mut regs = RegFile::new();
                regs.set_simd(level);
                eval_kernel(kernel, &ctx, &mut regs);
                for i in 0..len {
                    let ra = (a[i].round() as i64).clamp(org[0], org[0] + size[0] - 1);
                    let rb = (b[i].round() as i64).clamp(org[2], org[2] + size[2] - 1);
                    let ry = (q * (x0 + i as i64) + o).div_euclid(m);
                    let flat = (ra - org[0]) * strides[0] + (ry - org[1]) * strides[1] + rb - org[2];
                    prop_assert_eq!(regs.reg(RegId(2))[i].to_bits(), data[flat as usize].to_bits());
                }
            }
        }
    }

    /// Floor-divided strided loads `buf[(q·x + o) div m, c]`, the chunk
    /// axis driving the outer dimension of a 2-D buffer with negative
    /// origins (element stride `cols`), for random positive or negative
    /// `q`, any divisor and chunk start: every level equals the naive
    /// `div_euclid` indexing, through the legacy and optimized paths.
    #[test]
    fn floor_divided_strided_loads_match_naive(
        q in prop_oneof![-3i64..0, 1i64..4],
        m in 1i64..9,
        o in -20i64..6,
        cols in 1i64..7,
        shift in 0i64..9,
        len in 1usize..129,
    ) {
        let (org, rows) = ([-150i64, -3], 400i64);
        let col = org[1] + cols - 1;
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5 - 3.0).collect();
        let row = |x: i64| (q * x + o).div_euclid(m);
        // Lane 0 at the first row for q > 0 and at the last for q < 0.
        let start = if q > 0 { org[0] } else { org[0] + rows - 1 };
        let x0 = (start * m - o).div_euclid(q) + shift;
        let last = x0 + len as i64 - 1;
        let in_range = |x: i64| (org[0]..org[0] + rows).contains(&row(x));
        prop_assume!(in_range(x0) && in_range(last));
        let k = Kernel {
            ops: vec![Op::Load {
                dst: RegId(0),
                buf: BufId(0),
                plan: vec![
                    IdxPlan::Affine { dim: Some(0), q, o, m },
                    IdxPlan::Affine { dim: None, q: 0, o: col, m: 1 },
                ],
            }],
            nregs: 1,
            meta: None,
            outs: vec![RegId(0)],
        };
        let mut opt = k.clone();
        optimize_kernel(&mut opt, 1, &[None], "strided".into());
        let bufs = [Some(BufView {
            data: &data,
            origin: org.to_vec(),
            strides: vec![cols, 1],
            sizes: vec![rows, cols],
        })];
        let ctx = ChunkCtx { coords: &[x0], len, inner: 0, bufs: &bufs };
        for kernel in [&k, &opt] {
            for level in available_simd_levels() {
                let mut regs = RegFile::new();
                regs.set_simd(level);
                eval_kernel(kernel, &ctx, &mut regs);
                for i in 0..len {
                    let flat = (row(x0 + i as i64) - org[0]) * cols + col - org[1];
                    prop_assert_eq!(regs.reg(RegId(0))[i].to_bits(), data[flat as usize].to_bits());
                }
            }
        }
    }

    /// Lane-varying floor and ceil equal `f32::floor`/`f32::ceil` bit for
    /// bit at every level, on values spanning ties, signed zeros,
    /// subnormals and the 2²³ threshold.
    #[test]
    fn floor_ceil_match_scalar(
        vals in proptest::collection::vec(-9.0e6f32..9.0e6, 1..129),
        scale in prop_oneof![Just(1.0f32), Just(1.0e-6), Just(1.0e-39), Just(0.5)],
    ) {
        let data: Vec<f32> = vals.iter().map(|v| v * scale).collect();
        let len = data.len();
        let k = Kernel {
            ops: vec![
                Op::Load {
                    dst: RegId(0),
                    buf: BufId(0),
                    plan: vec![IdxPlan::Affine { dim: Some(0), q: 1, o: 0, m: 1 }],
                },
                Op::UnF { op: UnF::Floor, dst: RegId(1), a: RegId(0) },
                Op::UnF { op: UnF::Ceil, dst: RegId(2), a: RegId(0) },
            ],
            nregs: 3,
            meta: None,
            outs: vec![RegId(1), RegId(2)],
        };
        let (origin, strides, sizes) = view_1d(&data);
        let ctx = ChunkCtx {
            coords: &[0],
            len,
            inner: 0,
            bufs: &[Some(BufView { data: &data, origin, strides, sizes })],
        };
        for level in available_simd_levels() {
            let mut regs = RegFile::new();
            regs.set_simd(level);
            eval_kernel(&k, &ctx, &mut regs);
            for (i, &v) in data.iter().enumerate() {
                prop_assert_eq!(regs.reg(RegId(1))[i].to_bits(), v.floor().to_bits());
                prop_assert_eq!(regs.reg(RegId(2))[i].to_bits(), v.ceil().to_bits());
            }
        }
    }
}
