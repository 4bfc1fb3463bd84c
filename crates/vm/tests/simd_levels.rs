//! The SIMD backend's bit-exactness contract, checked exhaustively at the
//! chunk level: for every instruction-set level the host supports, every
//! vectorized operation, and every chunk length 1..=CHUNK (so every
//! vector-body/scalar-tail split), the lanes produced must be bit-identical
//! to the scalar loops — including NaN, ±0.0, infinities, denormals, and
//! round-half-away ties.
//!
//! Also pins down the register-file reuse contract behind the persistent
//! per-worker `RegFile`: operations write only `[..len]` and consumers read
//! only `[..len]`, so lanes left over from an earlier, longer evaluation
//! can never leak into a later short one.

use polymage_vm::*;

/// Adversarial lane values: exercises NaN propagation/ordering (quiet and
/// signaling payloads of either sign), signed zeros, infinities, denormals,
/// round-half-away ties, saturation boundaries, and both sides of the 2²³
/// integral threshold of the rounding sequences.
const SPECIALS: [f32; 25] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -0.5,
    2.5,
    -3.5,
    255.49,
    256.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE,
    1.0e-40,                     // denormal
    8388609.0,                   // 2^23 + 1: already integral, "big" path of round
    f32::from_bits(0x7f80_0001), // signaling NaN, smallest payload
    f32::from_bits(0xffa0_0005), // negative signaling NaN with payload
    f32::from_bits(0x7fc1_2345), // quiet NaN with payload
    -1.0e-40,                    // negative denormal
    8388607.0,                   // 2^23 - 1
    -8388607.0,                  // -(2^23 - 1)
    -8388609.0,                  // -(2^23 + 1)
    4194303.5,                   // tie just below the 2^23 threshold
    -0.49999997,                 // largest magnitude below a -0.5 tie
];

/// Fills a CHUNK-sized buffer cycling through the special values, offset
/// so that `a` and `b` operands pair every special with every other over
/// the various lengths.
fn special_data(offset: usize) -> Vec<f32> {
    (0..2 * CHUNK)
        .map(|i| SPECIALS[(i * 7 + offset) % SPECIALS.len()])
        .collect()
}

/// A kernel applying every vectorized op class to two loaded operands.
fn all_ops_kernel() -> Kernel {
    let bin = [
        BinF::Add,
        BinF::Sub,
        BinF::Mul,
        BinF::Div,
        BinF::Min,
        BinF::Max,
    ];
    let cmp = [CmpF::Lt, CmpF::Le, CmpF::Gt, CmpF::Ge, CmpF::Eq, CmpF::Ne];
    let mut ops = vec![
        Op::Load {
            dst: RegId(0),
            buf: BufId(0),
            plan: vec![IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            }],
        },
        Op::Load {
            dst: RegId(1),
            buf: BufId(1),
            plan: vec![IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            }],
        },
    ];
    let mut n = 2u16;
    for op in bin {
        ops.push(Op::BinF {
            op,
            dst: RegId(n),
            a: RegId(0),
            b: RegId(1),
        });
        n += 1;
    }
    for op in cmp {
        ops.push(Op::CmpMask {
            op,
            dst: RegId(n),
            a: RegId(0),
            b: RegId(1),
        });
        n += 1;
    }
    let m1 = RegId(n - 1); // Ne mask
    let m2 = RegId(n - 2); // Eq mask
    for op in [
        Op::MaskAnd {
            dst: RegId(n),
            a: m1,
            b: m2,
        },
        Op::MaskOr {
            dst: RegId(n + 1),
            a: m1,
            b: m2,
        },
        Op::MaskNot {
            dst: RegId(n + 2),
            a: m1,
        },
        Op::SelectF {
            dst: RegId(n + 3),
            mask: RegId(0),
            a: RegId(1),
            b: RegId(2),
        },
        Op::CastRound {
            dst: RegId(n + 4),
            a: RegId(0),
        },
        Op::CastSat {
            dst: RegId(n + 5),
            a: RegId(0),
            lo: 0.0,
            hi: 255.0,
        },
        Op::UnF {
            op: UnF::Floor,
            dst: RegId(n + 6),
            a: RegId(0),
        },
        Op::UnF {
            op: UnF::Ceil,
            dst: RegId(n + 7),
            a: RegId(1),
        },
    ] {
        ops.push(op);
        n += 1;
    }
    Kernel {
        ops,
        nregs: n as usize,
        meta: None,
        // every computed register is an output
        outs: (2..n).map(RegId).collect(),
    }
}

/// 1-D contiguous view over a data slice.
fn view(d: &[f32]) -> BufView<'_> {
    BufView {
        data: d,
        origin: vec![0],
        strides: vec![1],
        sizes: vec![d.len() as i64],
    }
}

/// Evaluates `k` once at (x0=0, len) against the two special-value buffers
/// and returns the bit pattern of every output register's live lanes.
fn eval_bits(k: &Kernel, a: &[f32], b: &[f32], len: usize, level: SimdLevel) -> Vec<u32> {
    let bufs = [Some(view(a)), Some(view(b))];
    let ctx = ChunkCtx {
        coords: &[0],
        len,
        inner: 0,
        bufs: &bufs,
    };
    let mut regs = RegFile::new();
    regs.set_simd(level);
    eval_kernel(k, &ctx, &mut regs);
    let mut out = Vec::new();
    for &r in &k.outs {
        out.extend(regs.reg(r)[..len].iter().map(|v| v.to_bits()));
    }
    out
}

/// Every level × every vectorized op × every body/tail split 1..=CHUNK is
/// bit-identical to the scalar loops on adversarial values.
#[test]
fn all_levels_bit_identical_at_every_tail_length() {
    let k = all_ops_kernel();
    let a = special_data(0);
    let b = special_data(3);
    for len in 1..=CHUNK {
        let want = eval_bits(&k, &a, &b, len, SimdLevel::Scalar);
        for level in available_simd_levels() {
            let got = eval_bits(&k, &a, &b, len, level);
            assert_eq!(want, got, "level {level} diverged from scalar at len {len}");
        }
    }
}

/// Strided loads (the AVX2 gather path) are value-identical to scalar
/// indexing at every length, including negative strides via dim-0 chunking
/// of a row-major 2-D view.
#[test]
fn strided_loads_bit_identical() {
    let cols = 7i64;
    let rows = CHUNK as i64 + 3;
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| SPECIALS[i as usize % SPECIALS.len()])
        .collect();
    let k = Kernel {
        ops: vec![Op::Load {
            dst: RegId(0),
            buf: BufId(0),
            plan: vec![
                IdxPlan::Affine {
                    dim: Some(0),
                    q: 2,
                    o: 1,
                    m: 1,
                },
                IdxPlan::Affine {
                    dim: Some(1),
                    q: 1,
                    o: 0,
                    m: 1,
                },
            ],
        }],
        nregs: 1,
        meta: None,
        outs: vec![RegId(0)],
    };
    let bufs = [Some(BufView {
        data: &data,
        origin: vec![0, 0],
        strides: vec![cols, 1],
        sizes: vec![rows, cols],
    })];
    for len in [1usize, 3, 4, 5, 8, 9, 31, 60] {
        for y in 0..cols {
            let ctx = ChunkCtx {
                coords: &[0, y],
                len,
                inner: 0,
                bufs: &bufs,
            };
            let mut want = Vec::new();
            for level in available_simd_levels() {
                let mut regs = RegFile::new();
                regs.set_simd(level);
                eval_kernel(&k, &ctx, &mut regs);
                let got: Vec<u32> = regs.reg(RegId(0))[..len]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                if level == SimdLevel::Scalar {
                    for (i, &bits) in got.iter().enumerate() {
                        let idx = (2 * i as i64 + 1) * cols + y;
                        assert_eq!(bits, data[idx as usize].to_bits());
                    }
                    want = got;
                } else {
                    assert_eq!(want, got, "level {level} gather len {len} y {y}");
                }
            }
        }
    }
}

/// Register-file reuse: a long evaluation followed by a short one on the
/// *same* register file yields exactly what a fresh register file yields —
/// stale lanes beyond `len` are never observable through outputs. This is
/// the contract that lets engine workers keep one `RegFile` across jobs
/// and lets `ensure`/`begin_row` skip re-zeroing live registers.
#[test]
fn tail_chunks_never_see_stale_lanes() {
    let k = all_ops_kernel();
    let a = special_data(1);
    let b = special_data(5);
    let a2 = special_data(9);
    let b2 = special_data(13);
    for level in available_simd_levels() {
        let mut reused = RegFile::new();
        reused.set_simd(level);
        // Long evaluation fills all CHUNK lanes of every register.
        {
            let bufs = [Some(view(&a)), Some(view(&b))];
            reused.begin_row();
            let ctx = ChunkCtx {
                coords: &[0],
                len: CHUNK,
                inner: 0,
                bufs: &bufs,
            };
            eval_kernel(&k, &ctx, &mut reused);
        }
        // Short tail evaluation on different data, same register file.
        for len in [1usize, 2, 7, 31] {
            let bufs = [Some(view(&a2)), Some(view(&b2))];
            reused.begin_row();
            let ctx = ChunkCtx {
                coords: &[0],
                len,
                inner: 0,
                bufs: &bufs,
            };
            eval_kernel(&k, &ctx, &mut reused);
            let fresh_bits = eval_bits(&k, &a2, &b2, len, level);
            let mut reused_bits = Vec::new();
            for &r in &k.outs {
                reused_bits.extend(reused.reg(r)[..len].iter().map(|v| v.to_bits()));
            }
            assert_eq!(
                fresh_bits, reused_bits,
                "stale lanes leaked at level {level} len {len}"
            );
        }
    }
}

/// `set_simd` clamps to host support, and lane counters attribute work to
/// the level actually dispatched.
#[test]
fn level_clamping_and_counters() {
    let k = all_ops_kernel();
    let a = special_data(0);
    let b = special_data(3);
    for level in available_simd_levels() {
        let bufs = [Some(view(&a)), Some(view(&b))];
        let ctx = ChunkCtx {
            coords: &[0],
            len: 17,
            inner: 0,
            bufs: &bufs,
        };
        let mut regs = RegFile::new();
        regs.set_simd(level);
        assert_eq!(regs.simd_level(), level, "available level must stick");
        eval_kernel(&k, &ctx, &mut regs);
        let c = regs.take_counters();
        let lanes = [
            c.simd_lanes_scalar,
            c.simd_lanes_sse2,
            c.simd_lanes_avx2,
            c.simd_lanes_neon,
        ];
        let idx = match level {
            SimdLevel::Scalar => 0,
            SimdLevel::Sse2 => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Neon => 3,
        };
        assert_eq!(lanes[idx], 17, "lanes counted at the dispatched level");
        for (i, &l) in lanes.iter().enumerate() {
            if i != idx {
                assert_eq!(l, 0, "no lanes counted at other levels");
            }
        }
    }
    // An unavailable level clamps to something the host has (never panics,
    // never dispatches unsupported instructions).
    let mut regs = RegFile::new();
    regs.set_simd(SimdLevel::Avx2);
    let eff = regs.simd_level();
    assert!(
        available_simd_levels().contains(&eff),
        "clamped level {eff} must be available"
    );
}

// ---------------------------------------------------------------------------
// Data-dependent indexing: gathers and the reduction scatter.
// ---------------------------------------------------------------------------

/// Adversarial index values for a register dimension clamped to
/// `[org, org + size − 1]`: NaN payloads, infinities, ties of either sign,
/// magnitudes at and beyond 2³¹, values on and one past either bound, and
/// ties that round past a bound.
fn index_specials(org: i64, size: i64) -> Vec<f32> {
    let (lo, hi) = (org as f32, (org + size - 1) as f32);
    let mut v = vec![
        f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_0007),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        0.49999997,
        1.0e-40,
        -1.0e-40,
        2147483648.0,
        -2147483648.0,
        2147483520.0,
        -2147483520.0,
        3.0e9,
        -3.0e9,
        1.0e20,
        -1.0e20,
        f32::MAX,
        f32::MIN,
        8388609.0,
        -8388609.0,
    ];
    v.extend([
        lo,
        hi,
        lo - 1.0,
        hi + 1.0,
        lo - 0.5,
        hi + 0.5,
        lo + 0.5,
        hi - 0.5,
        lo - 1.5,
        hi + 1.5,
    ]);
    v
}

/// `n` lanes cycling through `vals` with step `step` from `offset`.
fn cycle(vals: &[f32], n: usize, step: usize, offset: usize) -> Vec<f32> {
    (0..n)
        .map(|i| vals[(i * step + offset) % vals.len()])
        .collect()
}

/// A 1-D view whose element 0 sits at coordinate `x0`.
fn view_at(d: &[f32], x0: i64) -> BufView<'_> {
    BufView {
        data: d,
        origin: vec![x0],
        strides: vec![1],
        sizes: vec![d.len() as i64],
    }
}

/// Gather kernel over a 1-D chunk domain: `r0`, `r1` load index lanes
/// from buffers 1 and 2, then `r2 = buf0[plan]`.
fn gather_kernel(plan: Vec<IdxPlan>) -> Kernel {
    let contig = || {
        vec![IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 1,
        }]
    };
    Kernel {
        ops: vec![
            Op::Load {
                dst: RegId(0),
                buf: BufId(1),
                plan: contig(),
            },
            Op::Load {
                dst: RegId(1),
                buf: BufId(2),
                plan: contig(),
            },
            Op::Load {
                dst: RegId(2),
                buf: BufId(0),
                plan,
            },
        ],
        nregs: 3,
        meta: None,
        outs: vec![RegId(2)],
    }
}

/// The kernel as given (evaluated through the legacy per-op loads) and
/// optimized (evaluated through the row-resolved load classes).
fn both_paths(k: Kernel) -> [Kernel; 2] {
    let mut opt = k.clone();
    optimize_kernel(&mut opt, 1, &[None], "gather".into());
    assert!(opt.meta.is_some(), "optimizer attached no metadata");
    [k, opt]
}

/// Output bits of `k` over the chunk `[x0, x0 + len)`.
fn gather_bits(
    k: &Kernel,
    bufs: &[Option<BufView<'_>>],
    x0: i64,
    len: usize,
    level: SimdLevel,
) -> Vec<u32> {
    let ctx = ChunkCtx {
        coords: &[x0],
        len,
        inner: 0,
        bufs,
    };
    let mut regs = RegFile::new();
    regs.set_simd(level);
    eval_kernel(k, &ctx, &mut regs);
    regs.reg(k.out())[..len]
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The reference semantics of a register index: round half away from
/// zero, saturate to i64 (NaN → 0), clamp into `[org, org + size − 1]`.
fn naive_reg_index(v: f32, org: i64, size: i64) -> i64 {
    (v.round() as i64).clamp(org, org + size - 1)
}

/// The 3-D gather target: origins all negative, element `i` holds a
/// distinct value so any index difference shows in the output bits.
const GRID_ORG: [i64; 3] = [-4, -150, -2];
const GRID_SIZE: [i64; 3] = [6, 300, 5];

fn grid_data() -> Vec<f32> {
    let n = GRID_SIZE.iter().product::<i64>() as usize;
    (0..n).map(|i| i as f32 * 0.25 - 7.0).collect()
}

fn grid_view(data: &[f32]) -> BufView<'_> {
    BufView {
        data,
        origin: GRID_ORG.to_vec(),
        strides: vec![GRID_SIZE[1] * GRID_SIZE[2], GRID_SIZE[2], 1],
        sizes: GRID_SIZE.to_vec(),
    }
}

/// Gathers with two register dimensions around an affine chunk-axis term
/// `(q·x + o) div m`, for m ∈ {2, 3, 8}, q ∈ {1, 2}, negative `o` and every
/// remainder of the chunk start, at every tail length 1..=CHUNK and
/// through both evaluation paths: every level is bit-identical to scalar.
#[test]
fn gathers_bit_identical_on_adversarial_indices() {
    let data = grid_data();
    let ia = index_specials(GRID_ORG[0], GRID_SIZE[0]);
    let ib = index_specials(GRID_ORG[2], GRID_SIZE[2]);
    let a = cycle(&ia, CHUNK, 1, 0);
    let b = cycle(&ib, CHUNK, 7, 3);
    for m in [2i64, 3, 8] {
        for q in [1i64, 2] {
            for o in [-1i64, -7, -20] {
                let plan = vec![
                    IdxPlan::Reg(RegId(0)),
                    IdxPlan::Affine {
                        dim: Some(0),
                        q,
                        o,
                        m,
                    },
                    IdxPlan::Reg(RegId(1)),
                ];
                // Smallest chunk start whose first lane is in range.
                let first = (GRID_ORG[1] * m - o + q - 1).div_euclid(q);
                for k in both_paths(gather_kernel(plan)) {
                    for shift in 0..m {
                        let x0 = first + shift;
                        let bufs = [
                            Some(grid_view(&data)),
                            Some(view_at(&a, x0)),
                            Some(view_at(&b, x0)),
                        ];
                        for len in 1..=CHUNK {
                            let want = gather_bits(&k, &bufs, x0, len, SimdLevel::Scalar);
                            for (i, &w) in want.iter().enumerate() {
                                let x = x0 + i as i64;
                                let (ra, rb) = (
                                    naive_reg_index(a[i], GRID_ORG[0], GRID_SIZE[0]),
                                    naive_reg_index(b[i], GRID_ORG[2], GRID_SIZE[2]),
                                );
                                let ry = (q * x + o).div_euclid(m);
                                let flat = ((ra - GRID_ORG[0]) * GRID_SIZE[1] + ry - GRID_ORG[1])
                                    * GRID_SIZE[2]
                                    + rb
                                    - GRID_ORG[2];
                                assert_eq!(w, data[flat as usize].to_bits(), "scalar lane {i}");
                            }
                            for level in available_simd_levels() {
                                let got = gather_bits(&k, &bufs, x0, len, level);
                                assert_eq!(
                                    want,
                                    got,
                                    "level {level}: m {m} q {q} o {o} x0 {x0} len {len} meta {}",
                                    k.meta.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Register-only gathers (no chunk-axis term), the index register on the
/// outer or the inner dimension: bit-identical at every level and tail.
#[test]
fn register_only_gathers_bit_identical() {
    let data = grid_data();
    let ia = index_specials(GRID_ORG[0], GRID_SIZE[0]);
    let ib = index_specials(GRID_ORG[2], GRID_SIZE[2]);
    let a = cycle(&ia, CHUNK, 3, 1);
    let b = cycle(&ib, CHUNK, 5, 2);
    let plans = [
        vec![
            IdxPlan::Reg(RegId(0)),
            IdxPlan::Affine {
                dim: None,
                q: 0,
                o: 17,
                m: 1,
            },
            IdxPlan::Reg(RegId(1)),
        ],
        vec![
            IdxPlan::Affine {
                dim: None,
                q: 0,
                o: -3,
                m: 1,
            },
            IdxPlan::Affine {
                dim: None,
                q: 0,
                o: -150,
                m: 1,
            },
            IdxPlan::Reg(RegId(1)),
        ],
    ];
    for plan in plans {
        for k in both_paths(gather_kernel(plan)) {
            let bufs = [
                Some(grid_view(&data)),
                Some(view_at(&a, 0)),
                Some(view_at(&b, 0)),
            ];
            for len in 1..=CHUNK {
                let want = gather_bits(&k, &bufs, 0, len, SimdLevel::Scalar);
                for level in available_simd_levels() {
                    assert_eq!(
                        want,
                        gather_bits(&k, &bufs, 0, len, level),
                        "level {level} len {len}"
                    );
                }
            }
        }
    }
}

/// An affine chunk-axis index that leaves the buffer panics at every
/// level, through both paths — below the first element and past the last.
#[test]
fn out_of_range_chunk_axis_gathers_panic_at_every_level() {
    let data = grid_data();
    let zeros = vec![0.0f32; CHUNK];
    // The chunk axis drives the outermost dimension, so leaving it leaves
    // the buffer: x ∈ [x0, x0 + len) maps to (x − 2) div 2.
    let plan = vec![
        IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: -2,
            m: 2,
        },
        IdxPlan::Reg(RegId(0)),
        IdxPlan::Reg(RegId(1)),
    ];
    for k in both_paths(gather_kernel(plan)) {
        // Below: lane 0 sits at grid row -5 (< origin -4). Above: the last
        // lanes reach row 2 (> last row 1).
        for (x0, len) in [(-8i64, 9usize), (-6, 16)] {
            let bufs = [
                Some(grid_view(&data)),
                Some(view_at(&zeros, x0)),
                Some(view_at(&zeros, x0)),
            ];
            for level in available_simd_levels() {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    gather_bits(&k, &bufs, x0, len, level)
                }));
                assert!(
                    r.is_err(),
                    "level {level} x0 {x0}: out-of-range gather did not panic"
                );
            }
        }
    }
    // A register index clamped to the last row and a chunk-axis column one
    // past the row's end: the last lane reads exactly one element past the
    // end of a 2-D buffer, inside a full 8-lane block.
    let (rows, cols) = (6i64, 300i64);
    let flat2d = &data[..(rows * cols) as usize];
    let high = vec![1.0e9f32; CHUNK];
    let plan = vec![
        IdxPlan::Reg(RegId(0)),
        IdxPlan::Affine {
            dim: Some(0),
            q: 1,
            o: 0,
            m: 1,
        },
    ];
    for k in both_paths(gather_kernel(plan)) {
        let x0 = -150 + cols - 7;
        let bufs = [
            Some(BufView {
                data: flat2d,
                origin: vec![-4, -150],
                strides: vec![cols, 1],
                sizes: vec![rows, cols],
            }),
            Some(view_at(&high, x0)),
            Some(view_at(&high, x0)),
        ];
        for len in [8usize, 9] {
            for level in available_simd_levels() {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    gather_bits(&k, &bufs, x0, len, level)
                }));
                assert!(r.is_err(), "level {level} len {len}: read one past the end");
            }
        }
    }
}

/// A reduction scattering `value(x, y)` into a 2-D output with negative
/// origins, at target `(round(ia), round(ib))` clamped per lane: every
/// level produces bit-identical output cells for every chunk length.
#[test]
fn reduction_scatter_bit_identical_on_adversarial_indices() {
    use polymage_ir::Reduction;
    use polymage_poly::Rect;
    let (org, size) = ([-3i64, -2], [5i64, 7]);
    let ia = index_specials(org[0], size[0]);
    let ib = index_specials(org[1], size[1]);
    let rows = 3i64;
    let contig2 = || {
        vec![
            IdxPlan::Affine {
                dim: Some(0),
                q: 1,
                o: 0,
                m: 1,
            },
            IdxPlan::Affine {
                dim: Some(1),
                q: 1,
                o: 0,
                m: 1,
            },
        ]
    };
    for len in 1..=CHUNK as i64 {
        let prog = |level: SimdLevel| Program {
            name: "scatter".into(),
            buffers: vec![
                BufDecl {
                    name: "ia".into(),
                    kind: BufKind::Full,
                    sizes: vec![rows, len],
                    origin: vec![0, 0],
                },
                BufDecl {
                    name: "ib".into(),
                    kind: BufKind::Full,
                    sizes: vec![rows, len],
                    origin: vec![0, 0],
                },
                BufDecl {
                    name: "out".into(),
                    kind: BufKind::Full,
                    sizes: size.to_vec(),
                    origin: org.to_vec(),
                },
            ],
            image_bufs: vec![BufId(0), BufId(1)],
            groups: vec![GroupExec {
                name: "scatter".into(),
                kind: GroupKind::Reduction(ReductionExec {
                    name: "scatter".into(),
                    out: BufId(2),
                    red_dom: Rect::new(vec![(0, rows - 1), (0, len - 1)]),
                    kernel: Kernel {
                        ops: vec![
                            Op::CoordF {
                                dst: RegId(0),
                                dim: 1,
                            },
                            Op::Load {
                                dst: RegId(1),
                                buf: BufId(0),
                                plan: contig2(),
                            },
                            Op::Load {
                                dst: RegId(2),
                                buf: BufId(1),
                                plan: contig2(),
                            },
                        ],
                        nregs: 3,
                        meta: None,
                        outs: vec![RegId(0), RegId(1), RegId(2)],
                    },
                    op: Reduction::Sum,
                    reads: vec![BufId(0), BufId(1)],
                }),
            }],
            outputs: vec![("out".into(), BufId(2))],
            mode: EvalMode::Vector,
            simd: level,
            storage: StoragePlan::run_scoped(3),
        };
        let plane = |vals: &[f32], step: usize| {
            let cells = cycle(vals, (rows * len) as usize, step, len as usize);
            Buffer::zeros(Rect::new(vec![(0, rows - 1), (0, len - 1)]))
                .fill_with(|p| cells[(p[0] * len + p[1]) as usize])
        };
        let inputs = [plane(&ia, 1), plane(&ib, 3)];
        let bits = |level: SimdLevel| -> Vec<u32> {
            run_program(&prog(level), &inputs, 1).unwrap()[0]
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let want = bits(SimdLevel::Scalar);
        let mut naive = vec![0.0f32; (size[0] * size[1]) as usize];
        for y in 0..rows {
            for x in 0..len {
                let i = (y * len + x) as usize;
                let (ra, rb) = (
                    naive_reg_index(inputs[0].data[i], org[0], size[0]),
                    naive_reg_index(inputs[1].data[i], org[1], size[1]),
                );
                let cell = &mut naive[((ra - org[0]) * size[1] + rb - org[1]) as usize];
                *cell = (*cell as f64 + x as f64) as f32;
            }
        }
        let naive: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, naive, "scalar scatter len {len}");
        for level in available_simd_levels() {
            assert_eq!(want, bits(level), "level {level} len {len}");
        }
    }
}

// ---------------------------------------------------------------------------
// Floor-divided strided loads: axis-only gathers.
// ---------------------------------------------------------------------------

/// A single load `r0 = buf0[plan]`.
fn load_kernel(plan: Vec<IdxPlan>) -> Kernel {
    Kernel {
        ops: vec![Op::Load {
            dst: RegId(0),
            buf: BufId(0),
            plan,
        }],
        nregs: 1,
        meta: None,
        outs: vec![RegId(0)],
    }
}

/// `(q·x + o) div m` on the middle grid dimension (stride 5, origin
/// −150) with the outer and inner dimensions fixed — a strided load with
/// a floor divisor and no register index — for m ∈ {2, 3, 4}, q ∈ {1, 2,
/// 3}, negative `o` and every remainder of the chunk start: at every tail
/// length and level, through both evaluation paths, every lane equals the
/// naive `div_euclid` reference.
#[test]
fn floor_divided_strided_loads_bit_identical() {
    let data = grid_data();
    let (row, col) = (-3i64, 1i64);
    for m in [2i64, 3, 4] {
        for q in [1i64, 2, 3] {
            for o in [-1i64, -7, -20] {
                let plan = vec![
                    IdxPlan::Affine {
                        dim: None,
                        q: 0,
                        o: row,
                        m: 1,
                    },
                    IdxPlan::Affine {
                        dim: Some(0),
                        q,
                        o,
                        m,
                    },
                    IdxPlan::Affine {
                        dim: None,
                        q: 0,
                        o: col,
                        m: 1,
                    },
                ];
                // Smallest chunk start whose first lane is in range.
                let first = (GRID_ORG[1] * m - o + q - 1).div_euclid(q);
                for k in both_paths(load_kernel(plan)) {
                    let bufs = [Some(grid_view(&data))];
                    for shift in 0..m {
                        let x0 = first + shift;
                        for len in 1..=CHUNK {
                            let want = gather_bits(&k, &bufs, x0, len, SimdLevel::Scalar);
                            for (i, &w) in want.iter().enumerate() {
                                let ry = (q * (x0 + i as i64) + o).div_euclid(m);
                                let flat = ((row - GRID_ORG[0]) * GRID_SIZE[1] + ry - GRID_ORG[1])
                                    * GRID_SIZE[2]
                                    + col
                                    - GRID_ORG[2];
                                assert_eq!(w, data[flat as usize].to_bits(), "scalar lane {i}");
                            }
                            for level in available_simd_levels() {
                                assert_eq!(
                                    want,
                                    gather_bits(&k, &bufs, x0, len, level),
                                    "level {level}: m {m} q {q} o {o} x0 {x0} len {len} meta {}",
                                    k.meta.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A floor-divided strided load whose row index lands one row before the
/// first or one past the last row of a 2-D buffer (negative origins) —
/// in lane 0, or in the last lane of a full 8-lane block — panics at
/// every level, through both paths, as the per-lane walk always did.
#[test]
fn out_of_range_floor_divided_loads_panic_at_every_level() {
    let (org, rows, cols) = ([-37i64, -2], 20i64, 5i64);
    let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
    let bufs = [Some(BufView {
        data: &data,
        origin: org.to_vec(),
        strides: vec![cols, 1],
        sizes: vec![rows, cols],
    })];
    for m in [2i64, 3, 4] {
        for q in [1i64, 2, 3] {
            // With q > m the quotient skips values: take the first offset
            // at which some lane lands exactly one row before the first
            // and one row past the last.
            let row = |o: i64, x: i64| (q * x + o).div_euclid(m);
            let xs = || -400i64..400;
            let (o, below, past) = (-12i64..0)
                .rev()
                .find_map(|o| {
                    // Lane 0 at the last x one row before the first row;
                    // lane 7 at the first x one row past the last row.
                    let below = xs().rev().find(|&x| row(o, x) == org[0] - 1)?;
                    let past = xs().find(|&x| row(o, x) == org[0] + rows)?;
                    Some((o, below, past - 7))
                })
                .expect("an offset reaching both neighbours");
            assert!(row(o, below + 1) >= org[0] && row(o, past + 6) < org[0] + rows);
            let plan = vec![
                IdxPlan::Affine {
                    dim: Some(0),
                    q,
                    o,
                    m,
                },
                IdxPlan::Affine {
                    dim: None,
                    q: 0,
                    o: 0,
                    m: 1,
                },
            ];
            for k in both_paths(load_kernel(plan)) {
                for x0 in [below, past] {
                    for level in available_simd_levels() {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            gather_bits(&k, &bufs, x0, 8, level)
                        }));
                        assert!(
                            r.is_err(),
                            "level {level}: m {m} q {q} x0 {x0}: out-of-range load did not panic"
                        );
                    }
                }
            }
        }
    }
}
