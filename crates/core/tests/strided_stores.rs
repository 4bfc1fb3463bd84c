//! Stores along a non-unit-stride chunk axis, against the reference
//! interpreter bit for bit.
//!
//! Every stage here is chunked along an axis whose buffer stride is the
//! channel count (3 or 8): the parallel stages store `(y, x, c)` points
//! along `x`, and the sequential scan stores every `C`-th column of a
//! parity-split row. Each of the three store sites (parallel unmasked,
//! parallel masked by a residual guard, sequential) runs for a `Float`,
//! a `UChar` (saturate and round), a `Short` (saturate and round) and an
//! `Int` (round only) stage on adversarial values — NaN payloads, ±inf,
//! −0.0, half-way ties and values past every saturation bound. The chunk
//! axis spans `CHUNK + t` points for every `t` in `1..=CHUNK`, so the
//! last chunk of every row takes every tail length, at every available
//! SIMD level.

use polymage_core::interp::interpret;
use polymage_core::{instantiate, plan, CompileOptions, SimdOpt};
use polymage_ir::*;
use polymage_poly::Rect;
use polymage_vm::{available_simd_levels, run_program, Buffer, CHUNK};

const ROWS: i64 = 3;

/// Values that tell a wrong saturation, rounding or NaN path apart.
const SPECIALS: [f32; 28] = [
    f32::NAN,
    f32::from_bits(0x7f80_0001), // signaling NaN
    f32::from_bits(0xffc1_2345), // negative quiet NaN with payload
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    0.5,
    -0.5,
    1.5,
    2.5,
    -2.5,
    0.49999997,
    -0.49999997,
    254.5,
    255.5,
    256.0,
    -1.0,
    32766.5,
    32767.5,
    -32768.5,
    40000.0,
    -40000.0,
    1.0e10,
    -1.0e10,
    8388609.0,
    3.0,
    -7.25,
];

const TYPES: [ScalarType; 4] = [
    ScalarType::Float,
    ScalarType::UChar,
    ScalarType::Short,
    ScalarType::Int,
];

/// Per type: `plain(y, x, c) = I(y, x, c)`; `masked(y, x, c) = I(y, x, c)`
/// where `I(y, x, c) >= 0` (a data-dependent guard, so a residual store
/// mask); and the scan `scan(y, v)` over `v ∈ [0, W·C)`, defined on
/// `v % C == 0` only (a strided case), summing `J(y, v)` down the column.
fn pipeline(chans: i64) -> Pipeline {
    let mut p = PipelineBuilder::new("strided_stores");
    let w = p.param("W");
    let img = p.image(
        "I",
        ScalarType::Float,
        vec![PAff::cst(ROWS), PAff::param(w), PAff::cst(chans)],
    );
    let flat = p.image(
        "J",
        ScalarType::Float,
        vec![PAff::cst(ROWS), PAff::param(w) * chans],
    );
    let (y, x, c, v) = (p.var("y"), p.var("x"), p.var("c"), p.var("v"));
    let rows = Interval::cst(0, ROWS - 1);
    let cols = Interval::new(PAff::cst(0), PAff::param(w) - 1);
    let flat_cols = Interval::new(PAff::cst(0), PAff::param(w) * chans - 1);
    let chan = Interval::cst(0, chans - 1);
    let dom3 = [(y, rows.clone()), (x, cols), (c, chan)];
    let at = || Expr::at(img, [Expr::from(y), Expr::from(x), Expr::from(c)]);
    let at_flat = || Expr::at(flat, [Expr::from(y), Expr::from(v)]);
    let mut outs = Vec::new();
    for ty in TYPES {
        let plain = p.func(format!("plain_{ty}"), &dom3, ty);
        p.define(plain, vec![Case::always(at())]).unwrap();
        let masked = p.func(format!("masked_{ty}"), &dom3, ty);
        p.define(masked, vec![Case::new(at().ge(0.0), at())])
            .unwrap();
        let scan = p.func(
            format!("scan_{ty}"),
            &[(y, rows.clone()), (v, flat_cols.clone())],
            ty,
        );
        let on_grid = || Expr::from(v).rem(chans as f64).eq_(0.0);
        p.define(
            scan,
            vec![
                Case::new(on_grid() & Expr::from(y).eq_(0.0), at_flat()),
                Case::new(
                    on_grid() & Expr::from(y).ge(1),
                    at_flat() + Expr::at(scan, [y - 1, Expr::from(v)]),
                ),
            ],
        )
        .unwrap();
        outs.extend([plain, masked, scan]);
    }
    p.finish(&outs).unwrap()
}

/// Special values as a function of the coordinates alone, so an image at
/// any width is the restriction of the widest one.
fn special_image(rect: Rect) -> Buffer {
    Buffer::zeros(rect).fill_with(|p| {
        let h = p.iter().fold(0i64, |h, &c| h * 131 + c * 5);
        SPECIALS[h.rem_euclid(SPECIALS.len() as i64) as usize]
    })
}

fn inputs(chans: i64, w: i64) -> [Buffer; 2] {
    [
        special_image(Rect::new(vec![(0, ROWS - 1), (0, w - 1), (0, chans - 1)])),
        special_image(Rect::new(vec![(0, ROWS - 1), (0, w * chans - 1)])),
    ]
}

/// Every output point depends only on the input values at its own
/// coordinates (and, for the scan, the column above it), so the
/// interpreter runs once at the widest `W` and every narrower run is
/// checked against the restriction of that result to its rectangle.
#[test]
fn strided_stores_match_interpreter_at_every_tail_and_level() {
    let chunk = CHUNK as i64;
    for chans in [3i64, 8] {
        let pipe = pipeline(chans);
        let widest = interpret(&pipe, &[2 * chunk], &inputs(chans, 2 * chunk)).expect("interpret");
        let plans: Vec<_> = available_simd_levels()
            .into_iter()
            .map(|level| {
                let opts = CompileOptions::base(vec![2 * chunk])
                    .with_estimates(vec![2 * chunk])
                    .with_simd(SimdOpt::from(level));
                (level, plan(&pipe, &opts).expect("plan"))
            })
            .collect();
        for tail in 1..=chunk {
            let w = chunk + tail;
            let ins = inputs(chans, w);
            // Only dimension 1 narrows: each row of a narrower output is
            // the head of the widest output's row.
            let want: Vec<Vec<u32>> = widest
                .iter()
                .map(|full| {
                    let row = full.data.len() / ROWS as usize;
                    let keep = row / (2 * chunk) as usize * w as usize;
                    full.data
                        .chunks(row)
                        .flat_map(|r| &r[..keep])
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            for (level, plan) in &plans {
                let compiled = instantiate(plan, &[w]).expect("instantiate");
                let got = run_program(&compiled.program, &ins, 2).expect("run");
                for (k, (g, want)) in got.iter().zip(&want).enumerate() {
                    let stage = &pipe.func(pipe.live_outs()[k]).name;
                    assert_eq!(g.data.len(), want.len(), "{stage}: C {chans} W {w}");
                    let diff = g.data.iter().zip(want).position(|(a, &b)| a.to_bits() != b);
                    assert!(
                        diff.is_none(),
                        "{stage}: C {chans} W {w} level {level}: element {diff:?} differs"
                    );
                }
            }
        }
    }
}
