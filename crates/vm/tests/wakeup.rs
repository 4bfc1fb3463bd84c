//! Lost-wakeup regressions for the engine: observers of a run
//! (`RunHandle::is_finished`, joins, `cancel`) must never make the workers'
//! scan skip the run and fall asleep with claimable work left.
//!
//! Each test drives the engine from a helper thread and reports progress
//! over a channel; the test thread waits with a timeout, so a lost wakeup
//! fails the test and names the iteration instead of hanging the suite.

use polymage_poly::Rect;
use polymage_vm::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// How long one iteration may take before the engine is declared stuck.
const STUCK: Duration = Duration::from_secs(20);

/// `ngroups` pointwise tiled groups over `len` points, one tile of `tile`
/// points per strip: `out(x) = in(x) + ngroups`.
fn chain(ngroups: usize, len: i64, tile: i64) -> Program {
    let buffers: Vec<BufDecl> = (0..=ngroups)
        .map(|g| BufDecl {
            name: format!("b{g}"),
            kind: BufKind::Full,
            sizes: vec![len],
            origin: vec![0],
        })
        .collect();
    let dom = Rect::new(vec![(0, len - 1)]);
    let groups = (0..ngroups)
        .map(|g| {
            let kernel = Kernel {
                ops: vec![
                    Op::Load {
                        dst: RegId(0),
                        buf: BufId(g),
                        plan: vec![IdxPlan::Affine {
                            dim: Some(0),
                            q: 1,
                            o: 0,
                            m: 1,
                        }],
                    },
                    Op::ConstF {
                        dst: RegId(1),
                        val: 1.0,
                    },
                    Op::BinF {
                        op: BinF::Add,
                        dst: RegId(2),
                        a: RegId(0),
                        b: RegId(1),
                    },
                ],
                nregs: 3,
                meta: None,
                outs: vec![RegId(2)],
            };
            let stage = StageExec {
                name: format!("s{g}"),
                scratch: BufId(g),
                full: Some(BufId(g + 1)),
                direct: true,
                sat: None,
                round: false,
                cases: vec![CaseExec {
                    steps: vec![(1, 0)],
                    rect: dom.clone(),
                    kernel,
                    mask: None,
                }],
                dom: dom.clone(),
                reads: vec![BufId(g)],
            };
            let nstrips = (len / tile) as usize;
            let tiles = (0..nstrips)
                .map(|s| {
                    let lo = s as i64 * tile;
                    let r = Rect::new(vec![(lo, lo + tile - 1)]);
                    TileWork {
                        strip: s,
                        regions: vec![r.clone()],
                        stores: vec![Some(r)],
                    }
                })
                .collect();
            GroupExec {
                name: format!("g{g}"),
                kind: GroupKind::Tiled(TiledGroup::new(vec![stage], tiles, nstrips, &buffers)),
            }
        })
        .collect();
    Program {
        name: format!("chain{ngroups}"),
        image_bufs: vec![BufId(0)],
        outputs: vec![("out".into(), BufId(ngroups))],
        mode: EvalMode::Vector,
        simd: process_simd_level(),
        storage: StoragePlan::run_scoped(buffers.len()),
        groups,
        buffers,
    }
}

fn input(len: i64) -> Buffer {
    Buffer::zeros(Rect::new(vec![(0, len - 1)])).fill_with(|p| p[0] as f32 * 0.25)
}

/// Waits for `n` progress messages, failing with the last iteration seen
/// if the helper thread stops reporting.
fn watch(rx: &mpsc::Receiver<usize>, n: usize, what: &str) {
    let mut last = None;
    for _ in 0..n {
        match rx.recv_timeout(STUCK) {
            Ok(i) => last = Some(i),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let next = last.map_or(0, |i| i + 1);
                panic!("{what}: engine stuck at iteration {next} (no progress for {STUCK:?})")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("{what}: helper thread died after iteration {last:?}")
            }
        }
    }
}

/// Thousands of submit+join cycles on a one-worker engine: every join must
/// return. The join races the worker's scan of the run it waits on.
#[test]
fn submit_join_cycles_never_hang() {
    const CYCLES: usize = 3000;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let engine = Engine::with_threads(1);
        let prog = Arc::new(chain(3, 512, 64));
        let inp = input(512);
        for i in 0..CYCLES {
            let out = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&inp)))
                .unwrap()
                .join()
                .unwrap();
            assert_eq!(out[0].data[5], 5.0 * 0.25 + 3.0, "iteration {i}");
            if tx.send(i).is_err() {
                return;
            }
        }
    });
    watch(&rx, CYCLES, "submit+join");
}

/// Observers poll `is_finished` in a tight loop, and cancel every third
/// run, while the worker advances the runs: each run must still finish.
#[test]
fn polling_and_cancel_race_the_scan() {
    const RUNS: usize = 600;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let engine = Engine::with_threads(1);
        let prog = Arc::new(chain(6, 2048, 128));
        let inp = input(2048);
        for i in 0..RUNS {
            let h = engine
                .submit(RunRequest::new(&prog, std::slice::from_ref(&inp)))
                .unwrap();
            let mut polls = 0u64;
            while !h.is_finished() {
                polls += 1;
                if i % 3 == 0 && polls == 50 {
                    h.cancel();
                }
                std::hint::spin_loop();
            }
            match h.join() {
                Ok(out) => assert_eq!(out[0].data[7], 7.0 * 0.25 + 6.0, "run {i}"),
                Err(VmError::Cancelled { reason }) => {
                    assert_eq!(reason, CancelReason::Caller, "run {i}");
                    assert_eq!(i % 3, 0, "run {i} was never cancelled");
                }
                Err(e) => panic!("run {i}: {e}"),
            }
            if tx.send(i).is_err() {
                return;
            }
        }
    });
    watch(&rx, RUNS, "is_finished/cancel");
}
