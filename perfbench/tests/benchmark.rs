//! The benchmark's own checks: `BENCHMARK.json` gates every workload, the
//! counts a claim may rest on repeat exactly, and a stalled run is
//! cancelled and counted instead of hanging.

use polymage_apps::Scale;
use polymage_core::{CompileOptions, Session};
use polymage_perfbench::apps::APPS;
use polymage_perfbench::json::Json;
use polymage_perfbench::metrics;
use polymage_perfbench::watchdog::Watchdog;
use polymage_perfbench::workload::{replay_counts, serve_sizes, Workload};
use polymage_vm::{RunRequest, VmError};
use std::time::Duration;

#[test]
fn benchmark_json_gates_every_workload_and_bounds_every_end_to_end_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours, "every runnable workload is gated");
    let m = metrics();
    assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
    assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
    assert!(m.get("setup_s").is_some());
}

#[test]
fn counts_repeat_exactly_under_a_fixed_seed() {
    for (workload, requests) in [(Workload::FramesSmall, 7), (Workload::ServeMixed, 40)] {
        let a = replay_counts(workload, 7, Scale::Tiny, requests).expect("replay");
        let b = replay_counts(workload, 7, Scale::Tiny, requests).expect("replay");
        assert_eq!(a, b, "{}", workload.name());
        assert_eq!(a.runs.len(), APPS.len() + requests);
        assert!(a.runs.iter().all(|r| r.chunks > 0 && r.points > 0));
    }
    // The serving replay crosses the 32-entry instance cache: it misses,
    // evicts, and plans each application once.
    let serve = replay_counts(Workload::ServeMixed, 7, Scale::Tiny, 40).expect("replay");
    assert!(serve.cache.evictions > 0, "{:?}", serve.cache);
    assert_eq!(
        serve.cache.plan_misses,
        APPS.len() as u64,
        "{:?}",
        serve.cache
    );
}

#[test]
fn serving_sizes_are_seeded_distinct_and_valid() {
    let a = serve_sizes(3);
    assert_eq!(a, serve_sizes(3));
    assert_ne!(a, serve_sizes(4));
    let mut keys = a.clone();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), a.len());
    assert!(a.len() > 32, "more sizes than the instance cache holds");
    for (app, r, c) in a {
        let kind = &APPS[app];
        let (tiny, small) = (kind.dims(Scale::Tiny), kind.dims(Scale::Small));
        assert!(tiny.0 <= r && r <= small.0 && tiny.1 <= c && c <= small.1);
        assert_eq!((r % kind.multiple, c % kind.multiple), (0, 0));
    }
}

#[test]
fn watchdog_cancels_and_counts_a_run_past_its_limit() {
    let session = Session::with_threads(1);
    let (rows, cols) = APPS[2].dims(Scale::Small);
    let app = APPS[2].at(rows, cols);
    let inputs = app.make_inputs(1);
    let compiled = session
        .compile(app.pipeline(), &CompileOptions::optimized(app.params()))
        .expect("compile");
    let dog = Watchdog::default();
    std::thread::scope(|s| {
        let patrol = s.spawn(|| dog.patrol());
        let handle = session
            .engine()
            .submit(RunRequest::new(&compiled.program, &inputs).threads(1))
            .expect("submit");
        let id = handle.run_id();
        dog.watch(&handle, Duration::ZERO);
        let (result, _) = handle.join_outcome();
        assert!(
            matches!(result, Err(VmError::Cancelled { .. })),
            "{result:?}"
        );
        assert!(dog.release(id), "the cancelled run is reported as a stall");
        dog.stop();
        patrol.join().expect("watchdog thread");
    });
}
