//! The workloads and the load they put on one shared `Session`.
//!
//! Every workload has the same two clients, so every end-to-end metric
//! exists on every workload:
//!
//! - a **batch client**: one closed loop running the seven applications
//!   round-robin with `threads(2)`, each frame timed from submit to join
//!   (the per-app `*_ms` of `frames_small`, Table 2's rows);
//! - an **interactive stream**: an open loop of `Priority::High`,
//!   `threads(1)` requests at a fixed rate, each timed from the moment it
//!   was due (`hi_p50_ms`, `hi_tail_ms`), so a stall also delays the
//!   requests queued behind it; in `serve_mixed` its submit-to-join times
//!   give the per-app `*_ms`.
//!
//! The workloads differ in what the two clients send; see [`Workload`].

use crate::apps::{App, APPS};
use crate::heap;
use crate::stats::{median, percentile, tail_percentile};
use crate::steal::{Accepted, StealGate};
use crate::watchdog::Watchdog;
use polymage_apps::inputs::SplitMix;
use polymage_apps::Scale;
use polymage_core::{instantiate, plan, CompileOptions, GroupKindTag, Session};
use polymage_diag::{Diag, Span};
use polymage_ir::Pipeline;
use polymage_vm::{Buffer, Engine, Priority, Program, RunHandle, RunRequest, RunStats, VmError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine workers of the benchmark's `Session` (the host has two cores).
const WORKERS: usize = 2;
/// Fresh processes an untraced run measures `setup_s` in, before the
/// inputs are made and after the timed phase; it is the median of theirs.
const SETUP_PROCESSES: [usize; 2] = [3, 4];
/// Cold compiles per set-up process; the process reports the fastest.
const SETUP_REPEATS: usize = 3;
/// A set-up process still running after this long has hung; the run fails.
const SETUP_PROCESS_LIMIT: Duration = Duration::from_secs(30);
/// Timed `plan`/`instantiate` calls per application in a traced run.
const PHASE_REPEATS: usize = 3;
/// A run still unfinished after this multiple of the workload's expected
/// latency (its slowest warm-up frame) is a stall.
const STALL_MULTIPLE: u32 = 10;
/// Highest host steal share a sampling interval may show and still count
/// as clean time (2 of its 100 ticks). On the development host frames
/// that overlapped an interval with 3–5% steal ran 9–17% slower than
/// frames in intervals with none, and those with 2–3% 2–8% slower.
const MAX_STEAL: f64 = 0.02;
/// A timed phase that finds too little clean time ends at this multiple of
/// its length and is measured over its least stolen intervals.
const MAX_STRETCH: f64 = 1.5;
/// Stall limit of a warm-up run, before any frame has set the expected
/// latency: far above any Small frame, even on a busy host.
const WARM_LIMIT: Duration = Duration::from_secs(10);
/// Attempts per warm-up run; a stalled attempt is cancelled and retried.
const WARM_ATTEMPTS: u32 = 3;
/// Shortest stall limit, so scheduling noise on short frames is not a stall.
const MIN_STALL_LIMIT: Duration = Duration::from_millis(500);
/// How often the interactive stream looks for finished requests.
const POLL: Duration = Duration::from_micros(250);
/// `mem_peak_mb` is the median over the timed phase's windows of this
/// length of each window's peak heap bytes: the peak of a whole run is
/// set by which requests happen to overlap, and of ten `serve_mixed` runs
/// it read 89–119 MB.
const MEM_WINDOW: Duration = Duration::from_millis(250);
/// Interactive request rate of `frames_small`: a light probe that
/// measures how fast a high-priority request gets through a busy engine
/// while taking about 2% of it. At 10/s a 35 s run reads its tail at p95,
/// with 17 samples beyond it.
const PROBE_RATE_HZ: f64 = 10.0;
/// Interactive request rate of `serve_mixed`: about a quarter of the
/// capacity of two workers for its size mix (calibrated once, frozen).
const SERVE_RATE_HZ: f64 = 20.0;
/// Distinct sizes per application in `serve_mixed`'s request set; 7 × 16 =
/// 112 instances exceed the Session's 32-entry instance cache, so a steady
/// share of requests binds a new instance on the request path.
const SERVE_SIZES_PER_APP: usize = 16;
/// The seed of `serve_mixed`'s size set. It is fixed, so every run serves
/// the same sizes and only inputs and request order follow `--seed`: a
/// different size mix would move the latencies by itself.
const SERVE_SIZES_SEED: u64 = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All seven apps at `Scale::Small`. Frames take 8–100 ms and working
    /// sets fit in the last-level cache, so per-group barriers, claims and
    /// worker idle time are a visible share: engine and scheduling
    /// changes show here. The interactive stream is a light probe of
    /// Tiny frames.
    FramesSmall,
    /// One Session serving an open-loop interactive stream of all seven
    /// apps at 112 fixed sizes between Tiny and Small (more distinct sizes
    /// than the instance cache holds, so `instantiate` runs on the request
    /// path) next to a `Priority::Low` batch client of Small frames: many
    /// short runs, priority claims, admission and pool reuse across sizes.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::FramesSmall, Workload::ServeMixed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FramesSmall => "frames_small",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn batch_priority(self) -> Priority {
        match self {
            Workload::ServeMixed => Priority::Low,
            Workload::FramesSmall => Priority::Normal,
        }
    }

    /// The request kinds behind the per-app `*_ms` metrics and their
    /// latencies: the batch frames of `frames_small`, and in `serve_mixed`
    /// the interactive requests (the low-priority batch there only soaks
    /// up what the stream leaves, so its frame times follow the host's
    /// spare capacity rather than the program).
    fn per_app_latencies<'a>(
        self,
        bench: &'a Bench,
        t: &'a Tally,
    ) -> impl Iterator<Item = (usize, &'a [Timed])> + 'a {
        let (reqs, ops) = match self {
            Workload::ServeMixed => (&bench.stream, &t.stream),
            Workload::FramesSmall => (&bench.batch, &t.batch),
        };
        reqs.iter()
            .map(|r| r.app)
            .zip(ops.iter().map(Vec::as_slice))
    }

    fn stream_rate(self) -> f64 {
        match self {
            Workload::ServeMixed => SERVE_RATE_HZ,
            Workload::FramesSmall => PROBE_RATE_HZ,
        }
    }
}

/// One kind of request: an application at one size, its inputs and its
/// reference output.
struct Req {
    /// Index into [`APPS`].
    app: usize,
    bench: App,
    opts: CompileOptions,
    threads: usize,
    priority: Priority,
    inputs: Vec<Buffer>,
    reference: Vec<Buffer>,
    reference_ms: f64,
    mpix: f64,
}

impl Req {
    /// `pin` fixes the plan-time estimates at the app's Small size, so one
    /// plan serves every size and a new size only instantiates.
    fn new(app: usize, rows: i64, cols: i64, pin: bool) -> Req {
        let bench = APPS[app].at(rows, cols);
        let mut opts = CompileOptions::optimized(bench.params());
        if pin {
            let (r, c) = APPS[app].dims(Scale::Small);
            opts = opts.with_estimates(APPS[app].at(r, c).params());
        }
        Req {
            app,
            bench,
            opts,
            threads: WORKERS,
            priority: Priority::Normal,
            inputs: Vec::new(),
            reference: Vec::new(),
            reference_ms: 0.0,
            mpix: (rows * cols) as f64 / 1e6,
        }
    }

    fn pipeline(&self) -> &Pipeline {
        self.bench.pipeline()
    }

    /// Submits one run; a recording `diag` also turns on per-group stats.
    fn submit(
        &self,
        session: &Session,
        prog: &Arc<Program>,
        diag: &Diag,
    ) -> Result<RunHandle, String> {
        let req = RunRequest::new(prog, &self.inputs)
            .threads(self.threads)
            .priority(self.priority)
            .trace(diag)
            .group_stats(diag.enabled());
        session.engine().submit(req).map_err(|e| e.to_string())
    }

    /// Checks outputs against the library reference within the app's
    /// tolerance.
    fn check(&self, out: &[Buffer]) -> Result<(), String> {
        let name = self.bench.name();
        let p = self.bench.params();
        if out.len() != self.reference.len() {
            return Err(format!(
                "{name} {p:?}: {} outputs, expected {}",
                out.len(),
                self.reference.len()
            ));
        }
        let tol = self.bench.tolerance();
        for (o, (got, want)) in out.iter().zip(&self.reference).enumerate() {
            if got.rect != want.rect {
                return Err(format!(
                    "{name} {p:?}: output {o} has shape {}, expected {}",
                    got.rect, want.rect
                ));
            }
            let bad = got
                .data
                .iter()
                .zip(&want.data)
                .filter(|(a, b)| (*a - *b).abs() > tol + tol * b.abs())
                .count();
            if bad > 0 {
                return Err(format!(
                    "{name} {p:?}: output {o} has {bad} elements outside tolerance {tol}"
                ));
            }
        }
        Ok(())
    }
}

/// A hash of the outputs' exact bits: timed outputs must be bit-identical
/// to the first output of the same request kind.
fn output_hash(out: &[Buffer]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in out {
        for pair in b.data.chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            h = (h.rotate_left(5) ^ (lo | hi << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        h = (h ^ b.data.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// The counters of one batch frame that must repeat exactly for a fixed
/// program and input, whatever the timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCounts {
    /// Overlapped tiles executed.
    pub tiles: u64,
    /// Kernel chunk evaluations.
    pub chunks: u64,
    /// Points computed, redundant ones included.
    pub points: u64,
    /// Gather-class load rows.
    pub gathers: u64,
    /// Peak bytes of full buffers resident at once.
    pub peak_full_bytes: u64,
}

impl FrameCounts {
    /// The exact counters of one run.
    pub fn of(stats: &RunStats) -> FrameCounts {
        FrameCounts {
            tiles: stats.tiles,
            chunks: stats.chunks,
            points: stats.points_computed,
            gathers: stats.loads.gather as u64,
            peak_full_bytes: stats.peak_full_bytes,
        }
    }
}

/// Per-application tallies of batch frames, for the per-layer metrics.
#[derive(Default, Clone)]
struct AppTally {
    frames: u64,
    last: Option<FrameCounts>,
    uniform_hits: u64,
    uniform_total: u64,
    lanes_vector: u64,
    lanes_total: u64,
    loads_gather: u64,
    loads_total: u64,
    busy: Duration,
    window: Duration,
    peak_full_bytes: u64,
}

impl AppTally {
    fn add(&mut self, s: &RunStats) {
        self.frames += 1;
        self.last = Some(FrameCounts::of(s));
        self.uniform_hits += s.uniform_hits;
        self.uniform_total += s.uniform_hits + s.uniform_misses;
        self.lanes_vector += s.simd_lanes_avx2 + s.simd_lanes_sse2 + s.simd_lanes_neon;
        self.lanes_total +=
            s.simd_lanes_avx2 + s.simd_lanes_sse2 + s.simd_lanes_neon + s.simd_lanes_scalar;
        self.loads_gather += s.loads.gather as u64;
        self.loads_total += s.loads.total() as u64;
        self.busy += s.worker_busy.iter().sum::<Duration>();
        let groups: Duration = s.group_times.iter().map(|(_, d)| *d).sum();
        self.window += groups * s.worker_busy.len() as u32;
        self.peak_full_bytes = self.peak_full_bytes.max(s.peak_full_bytes);
    }
}

/// An operation's start (submission, or the moment it was due) and the
/// moment its completion was seen.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start: Instant,
    end: Instant,
}

impl Timed {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What one client saw during a timed phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    stalls: u64,
    /// Completed, correct runs and their input megapixels.
    work: Vec<(Timed, f64)>,
    /// Per batch request kind: successful frames, submit to join.
    batch: Vec<Vec<Timed>>,
    /// Per interactive request kind: successful requests, submit to join.
    stream: Vec<Vec<Timed>>,
    /// Every interactive request, from its due time.
    hi: Vec<Timed>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    wait_hi_ms: Vec<f64>,
    wait_lo_ms: Vec<f64>,
    cancelled_tiles: u64,
    apps: Vec<AppTally>,
    errors: Vec<String>,
    mismatches: Vec<String>,
}

impl Tally {
    fn new(bench: &Bench) -> Tally {
        Tally {
            batch: vec![Vec::new(); bench.batch.len()],
            stream: vec![Vec::new(); bench.stream.len()],
            apps: vec![AppTally::default(); APPS.len()],
            ..Tally::default()
        }
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.stalls += o.stalls;
        self.work.extend(o.work);
        for (a, b) in self.batch.iter_mut().zip(o.batch) {
            a.extend(b);
        }
        for (a, b) in self.stream.iter_mut().zip(o.stream) {
            a.extend(b);
        }
        self.hi.extend(o.hi);
        self.late_ms.extend(o.late_ms);
        self.submit_us.extend(o.submit_us);
        self.wait_hi_ms.extend(o.wait_hi_ms);
        self.wait_lo_ms.extend(o.wait_lo_ms);
        self.cancelled_tiles += o.cancelled_tiles;
        // Only the batch client tallies frames per application.
        for (a, b) in self.apps.iter_mut().zip(o.apps) {
            if b.frames > 0 {
                *a = b;
            }
        }
        self.errors.extend(o.errors);
        self.mismatches.extend(o.mismatches);
    }

    /// Counts warm-up attempts the watchdog cancelled: each is a stall and
    /// a failed operation.
    fn add_warm_stalls(&mut self, n: u64) {
        self.stalls += n;
        self.attempted += n;
        self.failed += n;
    }

    /// Records the outcome of one finished run; returns whether it
    /// succeeded.
    fn finish(
        &mut self,
        req: &Req,
        outcome: (Result<Vec<Buffer>, VmError>, RunStats),
        stalled: bool,
        first: &mut Option<u64>,
        run: Timed,
    ) -> bool {
        let (result, stats) = outcome;
        self.cancelled_tiles += stats.cancelled_tiles;
        if stalled {
            self.stalls += 1;
        }
        let ok = match result {
            Ok(out) => {
                let h = output_hash(&out);
                match *first {
                    None => {
                        if let Err(e) = req.check(&out) {
                            self.mismatches.push(e);
                        }
                        *first = Some(h);
                        true
                    }
                    Some(f) if f == h => true,
                    Some(_) => {
                        self.errors.push(format!(
                            "{} {:?}: output differs from the first output",
                            req.bench.name(),
                            req.bench.params()
                        ));
                        false
                    }
                }
            }
            Err(e) => {
                self.errors.push(format!(
                    "{} {:?}: {e}",
                    req.bench.name(),
                    req.bench.params()
                ));
                false
            }
        };
        if ok {
            self.work.push((run, req.mpix));
        } else {
            self.failed += 1;
        }
        let wait = stats.sched_wait.as_secs_f64() * 1e3;
        if req.priority == Priority::High {
            self.wait_hi_ms.push(wait);
        } else {
            self.wait_lo_ms.push(wait);
            if ok {
                self.apps[req.app].add(&stats);
            }
        }
        ok
    }
}

/// A prepared workload: the request kinds with their inputs and references.
struct Bench {
    workload: Workload,
    /// The seed all inputs and the request order derive from.
    seed: u64,
    batch: Vec<Req>,
    stream: Vec<Req>,
}

impl Bench {
    /// Builds the workload's request kinds for a seed (no inputs yet).
    fn new(workload: Workload, seed: u64) -> Bench {
        let serving = workload == Workload::ServeMixed;
        let batch = (0..APPS.len())
            .map(|app| {
                let (r, c) = APPS[app].dims(Scale::Small);
                let mut req = Req::new(app, r, c, serving);
                req.priority = workload.batch_priority();
                req
            })
            .collect();
        let stream = if serving {
            serve_sizes(SERVE_SIZES_SEED)
                .into_iter()
                .map(|(app, r, c)| Req::new(app, r, c, true))
                .collect()
        } else {
            (0..APPS.len())
                .map(|app| {
                    let (r, c) = APPS[app].dims(Scale::Tiny);
                    Req::new(app, r, c, false)
                })
                .collect()
        };
        let mut bench = Bench {
            workload,
            seed,
            batch,
            stream,
        };
        for r in &mut bench.stream {
            r.threads = 1;
            r.priority = Priority::High;
        }
        bench
    }

    /// Programs compiled before any request is timed: every batch program,
    /// plus the probe programs of `frames_small` (`serve_mixed` binds
    /// its interactive instances on the request path).
    fn setup_reqs(&self) -> impl Iterator<Item = &Req> {
        let probe = if self.workload == Workload::ServeMixed {
            &[][..]
        } else {
            &self.stream[..]
        };
        self.batch.iter().chain(probe)
    }

    /// Wall times of [`SETUP_REPEATS`] cold compiles (plan + instantiate)
    /// of the workload's programs, each in a fresh `Session`.
    fn setup_times(&self) -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let session = Session::with_threads(WORKERS);
            for r in self.setup_reqs() {
                session
                    .compile(r.pipeline(), &r.opts)
                    .map_err(|e| format!("{}: {e}", r.bench.name()))?;
            }
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(times)
    }

    /// Generates every request kind's inputs from the seed and computes its
    /// library reference, on [`WORKERS`] threads, largest images first.
    fn load_data(&mut self) {
        let seed = self.seed;
        let mut all: Vec<&mut Req> = self
            .batch
            .iter_mut()
            .chain(self.stream.iter_mut())
            .collect();
        all.sort_by(|a, b| b.mpix.total_cmp(&a.mpix));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<&mut Req>> = all.into_iter().map(Mutex::new).collect();
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let mut r = slot.lock().expect("each slot is taken once");
                    r.inputs = r.bench.make_inputs(seed);
                    let t = Instant::now();
                    r.reference = r.bench.reference(&r.inputs);
                    r.reference_ms = t.elapsed().as_secs_f64() * 1e3;
                });
            }
        });
    }
}

/// The fastest of [`SETUP_REPEATS`] cold compiles of a workload's
/// programs in this process, in seconds (what a set-up process reports).
pub fn setup_in_process(workload: Workload) -> Result<f64, String> {
    let times = Bench::new(workload, 0).setup_times()?;
    Ok(times.into_iter().fold(f64::INFINITY, f64::min))
}

/// Each one's fastest cold compile in `n` fresh processes of this binary
/// (`setup WORKLOAD`). `setup_s` is the median of such times, taken in
/// fresh processes at two moments half a minute apart: the same compile
/// takes 50 ms in one process and 80 ms in the next and keeps that speed
/// for the life of the process, and processes started within a few
/// seconds of each other tend to share it, so repeats inside one process
/// sample a single draw and a burst of processes only a few.
fn setup_seconds(workload: Workload, n: usize) -> Result<Vec<f64>, String> {
    use std::process::{Command, Stdio};
    let fail = |e: std::io::Error| format!("set-up process: {e}");
    let exe = std::env::current_exe().map_err(fail)?;
    let mut times = Vec::new();
    for _ in 0..n {
        let mut child = Command::new(&exe)
            .args(["setup", workload.name()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(fail)?;
        // A set-up process only compiles, but it must not hang the run.
        let deadline = Instant::now() + SETUP_PROCESS_LIMIT;
        while child.try_wait().map_err(fail)?.is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "set-up process still running after {SETUP_PROCESS_LIMIT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = child.wait_with_output().map_err(fail)?;
        let text = String::from_utf8_lossy(&out.stdout);
        let time = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        times.push(time.ok_or_else(|| {
            format!(
                "set-up process failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?);
    }
    Ok(times)
}

/// `serve_mixed`'s request set: per application, [`SERVE_SIZES_PER_APP`]
/// distinct `(rows, cols)` between its Tiny and Small sizes. The valid
/// sizes of a grid over that box are ranked by area and cut into as many
/// equal strata; one size is drawn from each, so every seed covers the
/// range of work evenly.
pub fn serve_sizes(seed: u64) -> Vec<(usize, i64, i64)> {
    /// Valid values per dimension kept in the grid.
    const GRID: usize = 64;
    let axis = |lo: i64, hi: i64, m: i64| -> Vec<i64> {
        let all: Vec<i64> = (lo..=hi).filter(|v| v % m == 0).collect();
        if all.len() <= GRID {
            return all;
        }
        (0..GRID)
            .map(|i| all[i * (all.len() - 1) / (GRID - 1)])
            .collect()
    };
    let mut rng = SplitMix::new(seed ^ 0x5e57_e512_e5ee_d000);
    let mut out = Vec::new();
    for (app, kind) in APPS.iter().enumerate() {
        let (tr, tc) = kind.dims(Scale::Tiny);
        let (sr, sc) = kind.dims(Scale::Small);
        let cols = axis(tc, sc, kind.multiple);
        let mut sizes: Vec<(i64, i64)> = axis(tr, sr, kind.multiple)
            .into_iter()
            .flat_map(|r| cols.iter().map(move |&c| (r, c)))
            .collect();
        sizes.sort_by_key(|&(r, c)| (r * c, r));
        let (n, k) = (sizes.len(), SERVE_SIZES_PER_APP);
        assert!(
            n >= k,
            "{} has only {n} sizes between Tiny and Small",
            kind.slug
        );
        for s in 0..k {
            let (lo, hi) = (s * n / k, (s + 1) * n / k);
            let (r, c) = sizes[lo + (rng.next_u64() % (hi - lo) as u64) as usize];
            out.push((app, r, c));
        }
    }
    out
}

/// Everything one run measured, ready to print.
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations attempted in the timed phase(s).
    pub attempted: u64,
    /// Operations failed: errors, stalls and outputs that differ from the
    /// first output of their kind.
    pub failed: u64,
    /// `(name, value)` of each reported metric.
    pub metrics: Vec<(String, f64)>,
    /// The percentile `hi_tail_ms` is read at.
    pub hi_tail_pct: f64,
    /// Interactive latency samples in the measured time.
    pub hi_samples: usize,
    /// Seconds the time metrics were measured over (the accepted
    /// intervals of the timed phase or phases).
    pub measured_s: f64,
    /// Wall seconds of the timed phase or phases.
    pub phase_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor over the
    /// measured time.
    pub steal_frac: f64,
    /// The same share over the whole timed phase.
    pub phase_steal_frac: f64,
    /// Outputs outside the reference tolerance (any makes the run incorrect).
    pub mismatches: Vec<String>,
    /// Failed operations.
    pub errors: Vec<String>,
    /// The chrome trace of a traced run.
    pub trace_json: Option<String>,
}

/// Runs one workload for `seconds` of measured time and measures it. With
/// `trace`, the timed phase is split: an untraced half, then a half on a
/// second `Session` that has a `Diag` recorder and asks for per-group
/// statistics; the per-layer metrics come from the traced half, and
/// `diag.overhead_frac` compares the halves.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut bench = Bench::new(workload, seed);
    let mut setup = Vec::new();
    let phases = if trace {
        Some(bench.compile_phases()?)
    } else {
        setup = setup_seconds(workload, SETUP_PROCESSES[0])?;
        None
    };
    bench.load_data();

    let session = Session::with_threads(WORKERS);
    let heap_before = heap::live_bytes();
    let warm = bench.warm_up(&session)?;
    let limit = (warm.slowest * STALL_MULTIPLE).max(MIN_STALL_LIMIT);

    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        hi_tail_pct: 0.0,
        hi_samples: 0,
        measured_s: 0.0,
        phase_s: 0.0,
        steal_frac: 0.0,
        phase_steal_frac: 0.0,
        mismatches: warm.mismatches,
        errors: Vec::new(),
        trace_json: None,
    };
    let mut state = StreamState::new(&bench, seed, warm.stream_hashes);
    if !trace {
        let mut ph = bench.phase(
            &session,
            seconds,
            &Diag::noop(),
            limit,
            &warm.batch_hashes,
            &mut state,
        );
        ph.tally.add_warm_stalls(warm.stalls);
        let peaks: Vec<f64> = ph
            .heap_peaks
            .iter()
            .map(|&b| b.saturating_sub(heap_before) as f64 / 1e6)
            .collect();
        let mem_peak_mb = median(&peaks).expect("the phase has a memory window");
        setup.extend(setup_seconds(workload, SETUP_PROCESSES[1])?);
        let setup_s = median(&setup).expect("set-up was measured");
        report.hi_tail_pct = tail_percentile(ph.expected_hi);
        let hi: Vec<f64> = ph.measured(&ph.tally.hi).collect();
        report.hi_samples = hi.len();
        let mut m = vec![
            ("setup_s".to_string(), setup_s),
            ("throughput_mpix_s".to_string(), ph.throughput()),
            ("mem_peak_mb".to_string(), mem_peak_mb),
        ];
        // Per app, the mean over its request sizes of each size's median:
        // `serve_mixed` serves 16 sizes per app in a shuffled order, so a
        // plain median would move with the sizes a run happened to measure.
        let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); APPS.len()];
        for (app, ops) in bench.workload.per_app_latencies(&bench, &ph.tally) {
            let lat: Vec<f64> = ph.measured(ops).collect();
            per_size[app].extend(median(&lat));
        }
        for (app, meds) in APPS.iter().zip(per_size) {
            if meds.is_empty() {
                return Err(format!("no measured {} frame", app.slug));
            }
            m.push((
                format!("{}_ms", app.slug),
                meds.iter().sum::<f64>() / meds.len() as f64,
            ));
        }
        m.push((
            "hi_p50_ms".into(),
            percentile(&hi, 50.0).ok_or("no measured interactive request")?,
        ));
        m.push((
            "hi_tail_ms".into(),
            percentile(&hi, report.hi_tail_pct).ok_or("no measured interactive request")?,
        ));
        report.metrics = m;
        report.finish(ph);
    } else {
        let half = seconds / 2.0;
        let plain = bench.phase(
            &session,
            half,
            &Diag::noop(),
            limit,
            &warm.batch_hashes,
            &mut state,
        );
        drop(session);
        // The traced half gets a Session of its own, so nothing records
        // during the untraced half. Its warm-up compiles and runs are the
        // first events of the trace.
        let diag = Diag::recorder();
        let session = Session::with_threads(WORKERS).with_diag(diag.clone());
        let traced_warm = bench.warm_up(&session)?;
        report.mismatches.extend(traced_warm.mismatches);
        let cache0 = session.cache_stats();
        let pool0 = session.engine().pool_stats();
        let mut traced = bench.phase(&session, half, &diag, limit, &warm.batch_hashes, &mut state);
        traced
            .tally
            .add_warm_stalls(warm.stalls + traced_warm.stalls);
        let cache1 = session.cache_stats();
        let pool1 = session.engine().pool_stats();
        let phases = phases.expect("traced runs time the compiler phases");
        let t = &traced.tally;
        let mut m: Vec<(String, f64)> = Vec::new();
        for (i, app) in APPS.iter().enumerate() {
            let a = &t.apps[i];
            let counts = a
                .last
                .ok_or_else(|| format!("no traced {} frame", app.slug))?;
            let req = &bench.batch[i];
            let useful = useful_points(&session, req)?;
            let values = [
                ("core.plan_ms", phases[i].plan_ms),
                ("core.instantiate_ms", phases[i].instantiate_ms),
                ("core.groups", phases[i].groups as f64),
                (
                    "vm.exec.idle_frac",
                    1.0 - ratio(a.busy.as_secs_f64(), a.window.as_secs_f64(), 1.0),
                ),
                (
                    "vm.exec.redundancy",
                    ratio(counts.points as f64, useful as f64, 1.0) - 1.0,
                ),
                ("vm.exec.tiles", counts.tiles as f64),
                ("vm.eval.chunks", counts.chunks as f64),
                (
                    "vm.eval.uniform_hit_ratio",
                    ratio(a.uniform_hits as f64, a.uniform_total as f64, 0.0),
                ),
                (
                    "vm.simd.vector_lane_frac",
                    ratio(a.lanes_vector as f64, a.lanes_total as f64, 0.0),
                ),
                (
                    "vm.loadclass.gather_frac",
                    ratio(a.loads_gather as f64, a.loads_total as f64, 0.0),
                ),
                ("vm.pool.peak_full_mb", a.peak_full_bytes as f64 / 1e6),
                ("apps.reference_ms", req.reference_ms),
            ];
            m.extend(values.map(|(prefix, v)| (format!("{prefix}.{}", app.slug), v)));
        }
        let delta = |after: u64, before: u64| (after - before) as f64;
        let hits = delta(cache1.hits, cache0.hits);
        let misses = delta(cache1.misses, cache0.misses);
        let plan_hits = delta(cache1.plan_hits, cache0.plan_hits);
        let plan_misses = delta(cache1.plan_misses, cache0.plan_misses);
        let shared = [
            (
                "core.session.instance_hit_ratio",
                ratio(hits, hits + misses, 1.0),
            ),
            (
                "core.session.plan_hit_ratio",
                ratio(plan_hits, plan_hits + plan_misses, 1.0),
            ),
            ("vm.engine.submit_us", median(&t.submit_us).unwrap_or(0.0)),
            (
                "vm.engine.sched_wait_ms.hi",
                median(&t.wait_hi_ms).unwrap_or(0.0),
            ),
            (
                "vm.engine.sched_wait_ms.lo",
                median(&t.wait_lo_ms).unwrap_or(0.0),
            ),
            ("vm.engine.stalls", t.stalls as f64),
            ("vm.engine.cancelled_tiles", t.cancelled_tiles as f64),
            (
                "vm.pool.reuse_ratio",
                ratio(
                    delta(pool1.reuses, pool0.reuses),
                    delta(pool1.acquires, pool0.acquires),
                    1.0,
                ),
            ),
            (
                "diag.overhead_frac",
                1.0 - ratio(traced.throughput(), plain.throughput(), 1.0),
            ),
            (
                "bench.gen_late_ms",
                t.late_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("bench.steal_frac", traced.accepted.steal()),
            ("fail_frac", ratio(t.failed as f64, t.attempted as f64, 0.0)),
        ];
        m.extend(shared.map(|(name, v)| (name.to_string(), v)));
        report.metrics = m;
        report.hi_tail_pct = tail_percentile(traced.expected_hi);
        report.hi_samples = traced.measured(&t.hi).count();
        report.trace_json = diag.snapshot().map(|r| r.to_chrome_json());
        report.finish(plain);
        report.finish(traced);
    }
    report.correct = report.mismatches.is_empty();
    Ok(report)
}

impl Report {
    /// Adds a finished phase's operations and times.
    fn finish(&mut self, ph: Phase) {
        let acc = &ph.accepted;
        let measured = acc.total().as_secs_f64();
        let phase = acc.phase().as_secs_f64();
        // Steal shares weighted by time over all phases so far.
        let mean = |a: f64, wa: f64, b: f64, wb: f64| ratio(a * wa + b * wb, wa + wb, 0.0);
        self.steal_frac = mean(self.steal_frac, self.measured_s, acc.steal(), measured);
        self.phase_steal_frac = mean(
            self.phase_steal_frac,
            self.phase_s,
            acc.phase_steal(),
            phase,
        );
        self.measured_s += measured;
        self.phase_s += phase;
        let t = ph.tally;
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.mismatches.extend(t.mismatches);
        self.errors.extend(t.errors);
    }
}

fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

/// Sum of the domain volumes of the stages in tiled groups — the useful
/// point count that redundancy divides by (stages inlined away no longer
/// appear in the compile report).
fn useful_points(session: &Session, req: &Req) -> Result<u64, String> {
    let compiled = session
        .compile(req.pipeline(), &req.opts)
        .map_err(|e| e.to_string())?;
    let names: Vec<&str> = compiled
        .report
        .groups
        .iter()
        .filter(|g| g.kind == GroupKindTag::Normal)
        .flat_map(|g| g.stages.iter().map(String::as_str))
        .collect();
    let pipe = req.pipeline();
    let params = &req.opts.params;
    Ok(pipe
        .func_ids()
        .filter(|&f| names.contains(&pipe.func(f).name.as_str()))
        .map(|f| {
            pipe.func(f)
                .var_dom
                .dom
                .iter()
                .map(|iv| {
                    let (lo, hi) = iv.eval(params);
                    (hi - lo + 1).max(0) as u64
                })
                .product::<u64>()
        })
        .sum())
}

/// Timed compiler phases of one batch program.
struct CompilePhases {
    plan_ms: f64,
    instantiate_ms: f64,
    groups: usize,
}

/// What the warm-up established.
struct Warm {
    slowest: Duration,
    /// Attempts the watchdog cancelled.
    stalls: u64,
    batch_hashes: Vec<Option<u64>>,
    stream_hashes: Vec<Option<u64>>,
    mismatches: Vec<String>,
}

/// The interactive stream's position and first-output hashes, carried
/// across the two phases of a traced run.
struct StreamState {
    rng: SplitMix,
    deck: Vec<usize>,
    first: Vec<Option<u64>>,
}

impl StreamState {
    fn new(bench: &Bench, seed: u64, mut first: Vec<Option<u64>>) -> StreamState {
        first.resize(bench.stream.len(), None);
        StreamState {
            rng: SplitMix::new(seed ^ 0xdec4_0000_0000_0001),
            deck: Vec::new(),
            first,
        }
    }

    /// The next request kind: the kinds are dealt in a seeded shuffled
    /// order, each once per round, so the mix is exact over every round.
    fn next(&mut self, n: usize) -> usize {
        if self.deck.is_empty() {
            self.deck = (0..n).collect();
            for i in (1..n).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("deck refilled above")
    }
}

/// One timed phase's tallies and the time they are measured over.
struct Phase {
    tally: Tally,
    accepted: Accepted,
    /// Interactive requests the stream's rate schedules in the phase's
    /// measured length; fixes the percentile `hi_tail_ms` is read at.
    expected_hi: usize,
    /// Peak heap bytes of each [`MEM_WINDOW`] of the phase.
    heap_peaks: Vec<usize>,
}

impl Phase {
    /// Input megapixels completed per second of measured time; a run only
    /// partly inside measured time counts in proportion.
    fn throughput(&self) -> f64 {
        let mpix: f64 = self
            .tally
            .work
            .iter()
            .map(|(run, mpix)| {
                let inside = self.accepted.overlap(run.start, run.end).as_secs_f64();
                mpix * ratio(inside, (run.end - run.start).as_secs_f64(), 1.0)
            })
            .sum();
        ratio(mpix, self.accepted.total().as_secs_f64(), 0.0)
    }

    /// Milliseconds of the operations that lie wholly inside measured time.
    fn measured<'a>(&'a self, ops: &'a [Timed]) -> impl Iterator<Item = f64> + 'a {
        ops.iter()
            .filter(|op| self.accepted.covers(op.start, op.end))
            .map(Timed::ms)
    }
}

impl Bench {
    /// Median `plan()` and `instantiate()` times of each batch program, and
    /// its plan's group count.
    fn compile_phases(&self) -> Result<Vec<CompilePhases>, String> {
        let mut out = Vec::new();
        for r in &self.batch {
            let (mut p_ms, mut i_ms) = (Vec::new(), Vec::new());
            let mut groups = 0;
            for _ in 0..PHASE_REPEATS {
                let t = Instant::now();
                let pl = plan(r.pipeline(), &r.opts).map_err(|e| e.to_string())?;
                p_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let c = instantiate(&pl, &r.opts.params).map_err(|e| e.to_string())?;
                i_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(c);
                groups = pl.num_groups();
            }
            out.push(CompilePhases {
                plan_ms: median(&p_ms).expect("PHASE_REPEATS > 0"),
                instantiate_ms: median(&i_ms).expect("PHASE_REPEATS > 0"),
                groups,
            });
        }
        Ok(out)
    }

    /// One untimed run of every program compiled at setup, checked against
    /// its reference; fills the engine's pools and records first outputs.
    /// The runs are watched like timed ones, so a stall cannot hang the
    /// benchmark before timing starts.
    fn warm_up(&self, session: &Session) -> Result<Warm, String> {
        let dog = Watchdog::default();
        std::thread::scope(|s| {
            s.spawn(|| dog.patrol());
            let warm = self.warm_runs(session, &dog);
            dog.stop();
            warm
        })
    }

    fn warm_runs(&self, session: &Session, dog: &Watchdog) -> Result<Warm, String> {
        let mut warm = Warm {
            slowest: Duration::ZERO,
            stalls: 0,
            batch_hashes: Vec::new(),
            stream_hashes: Vec::new(),
            mismatches: Vec::new(),
        };
        for (i, r) in self.setup_reqs().enumerate() {
            let compiled = session
                .compile(r.pipeline(), &r.opts)
                .map_err(|e| format!("{}: {e}", r.bench.name()))?;
            let mut attempt = 1;
            let out = loop {
                let t = Instant::now();
                let handle = r.submit(session, &compiled.program, &Diag::noop())?;
                let id = handle.run_id();
                dog.watch(&handle, WARM_LIMIT);
                let result = handle.join();
                if dog.release(id) {
                    warm.stalls += 1;
                    if attempt < WARM_ATTEMPTS {
                        attempt += 1;
                        continue;
                    }
                    return Err(format!(
                        "{}: {WARM_ATTEMPTS} warm-up runs stalled",
                        r.bench.name()
                    ));
                }
                let out =
                    result.map_err(|e| format!("{}: warm-up run failed: {e}", r.bench.name()))?;
                warm.slowest = warm.slowest.max(t.elapsed());
                break out;
            };
            if let Err(e) = r.check(&out) {
                warm.mismatches.push(e);
            }
            if i < self.batch.len() {
                warm.batch_hashes.push(Some(output_hash(&out)));
            } else {
                warm.stream_hashes.push(Some(output_hash(&out)));
            }
        }
        Ok(warm)
    }

    /// One timed phase: the batch client on a second thread, the
    /// interactive stream on this one, and the watchdog and the steal
    /// sampler beside them. The phase ends once it has `seconds` of clean
    /// time (see [`StealGate`]), after at most [`MAX_STRETCH`] times that.
    /// `diag` is the no-op sink unless the phase is traced.
    fn phase(
        &self,
        session: &Session,
        seconds: f64,
        diag: &Diag,
        limit: Duration,
        batch_hashes: &[Option<u64>],
        state: &mut StreamState,
    ) -> Phase {
        let clients = Clients {
            session,
            diag,
            limit,
            dog: Watchdog::default(),
        };
        let target = Duration::from_secs_f64(seconds);
        let gate = StealGate::new(target, target.mul_f64(MAX_STRETCH), MAX_STEAL);
        let rate = self.workload.stream_rate();
        let start = Instant::now();
        let (tally, heap_peaks) = std::thread::scope(|s| {
            let patrol = s.spawn(|| clients.dog.patrol());
            let sampler = s.spawn(|| gate.sample(start));
            let heap = s.spawn(|| {
                heap::take_peak();
                let mut peaks = Vec::new();
                while !gate.stopped() {
                    std::thread::sleep(MEM_WINDOW);
                    peaks.push(heap::take_peak());
                }
                peaks
            });
            let batch = s.spawn(|| clients.batch(self, &gate, batch_hashes));
            let mut tally = clients.stream(self, start, rate, &gate, state);
            tally.merge(batch.join().expect("batch client panicked"));
            sampler.join().expect("steal sampler panicked");
            clients.dog.stop();
            patrol.join().expect("watchdog panicked");
            (tally, heap.join().expect("heap sampler panicked"))
        });
        Phase {
            tally,
            accepted: gate.accepted(),
            expected_hi: (rate * seconds).round() as usize,
            heap_peaks,
        }
    }
}

/// What both clients of a phase share.
struct Clients<'a> {
    session: &'a Session,
    diag: &'a Diag,
    limit: Duration,
    dog: Watchdog,
}

impl Clients<'_> {
    /// Compiles (through the Session's cache) and submits one request, and
    /// starts watching it. Returns the handle and the moment before
    /// submission; a failure is recorded in `t` instead.
    fn issue(&self, r: &Req, t: &mut Tally) -> Option<(RunHandle, Instant)> {
        t.attempted += 1;
        let span = self.diag.begin();
        let compiled = self.session.compile(r.pipeline(), &r.opts);
        self.diag.end(
            span,
            "bench.compile",
            vec![("app", APPS[r.app].slug.into())],
        );
        let t0 = Instant::now();
        let submitted = compiled
            .map_err(|e| e.to_string())
            .and_then(|c| r.submit(self.session, &c.program, self.diag));
        match submitted {
            Ok(h) => {
                t.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                self.dog.watch(&h, self.limit);
                Some((h, t0))
            }
            Err(e) => {
                t.failed += 1;
                t.errors
                    .push(format!("{} {:?}: {e}", r.bench.name(), r.bench.params()));
                None
            }
        }
    }

    /// Joins a finished (or finishing) request submitted at `submitted`
    /// and records it; returns whether it succeeded and when its
    /// completion was seen.
    fn complete(
        &self,
        r: &Req,
        (handle, submitted): (RunHandle, Instant),
        span: Span,
        first: &mut Option<u64>,
        t: &mut Tally,
    ) -> (bool, Instant) {
        let id = handle.run_id();
        let outcome = handle.join_outcome();
        let done = Instant::now();
        let stalled = self.dog.release(id);
        let run = Timed {
            start: submitted,
            end: done,
        };
        let ok = t.finish(r, outcome, stalled, first, run);
        let args = vec![
            ("run_id", id.into()),
            ("app", APPS[r.app].slug.into()),
            ("ok", ok.into()),
        ];
        self.diag.end(span, "bench.request", args);
        (ok, done)
    }

    /// The closed-loop batch client: the apps round-robin until the gate
    /// stops the phase, and at least one frame of each, timed from submit
    /// to join.
    fn batch(&self, bench: &Bench, gate: &StealGate, hashes: &[Option<u64>]) -> Tally {
        let mut t = Tally::new(bench);
        let mut first = hashes.to_vec();
        for i in 0.. {
            if i >= bench.batch.len() && gate.stopped() {
                break;
            }
            let idx = i % bench.batch.len();
            let r = &bench.batch[idx];
            let span = self.diag.begin();
            let Some(issued) = self.issue(r, &mut t) else {
                continue;
            };
            let start = issued.1;
            let (ok, end) = self.complete(r, issued, span, &mut first[idx], &mut t);
            if ok {
                t.batch[idx].push(Timed { start, end });
            }
        }
        t
    }

    /// The open-loop interactive stream: requests due at `rate` from
    /// `start` until the gate stops the phase (and at least one round of
    /// the request kinds), each timed from its due time to the moment its
    /// completion is seen (polled every [`POLL`]).
    fn stream(
        &self,
        bench: &Bench,
        start: Instant,
        rate: f64,
        gate: &StealGate,
        state: &mut StreamState,
    ) -> Tally {
        let mut t = Tally::new(bench);
        // (request kind, due time, (handle, submit time), span)
        let mut inflight: Vec<(usize, Instant, (RunHandle, Instant), Span)> = Vec::new();
        let mut issued = 0;
        loop {
            let now = Instant::now();
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].2 .0.is_finished() {
                    let (idx, due, run, span) = inflight.swap_remove(i);
                    let r = &bench.stream[idx];
                    let submitted = run.1;
                    let (ok, end) = self.complete(r, run, span, &mut state.first[idx], &mut t);
                    t.hi.push(Timed { start: due, end });
                    if ok {
                        t.stream[idx].push(Timed {
                            start: submitted,
                            end,
                        });
                    }
                } else {
                    i += 1;
                }
            }
            let issuing = issued < bench.stream.len() || !gate.stopped();
            let due = start + Duration::from_secs_f64(issued as f64 / rate);
            if issuing && now >= due {
                issued += 1;
                t.late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                let idx = state.next(bench.stream.len());
                let span = self.diag.begin();
                match self.issue(&bench.stream[idx], &mut t) {
                    Some(run) => inflight.push((idx, due, run, span)),
                    // A refused request still waited from its due time.
                    None => t.hi.push(Timed {
                        start: due,
                        end: Instant::now(),
                    }),
                }
                continue;
            }
            if !issuing && inflight.is_empty() {
                break;
            }
            // Poll while something is in flight; otherwise sleep until the
            // next request is due (or, once the phase is over, briefly),
            // leaving the cores to the workers.
            let to_due = due.saturating_duration_since(now);
            std::thread::sleep(match (inflight.is_empty(), issuing) {
                (true, true) => to_due,
                (false, true) => to_due.min(POLL),
                (_, false) => POLL,
            });
        }
        t
    }
}

/// The exact counts of a deterministic replay: each batch program once,
/// then `requests` interactive requests in the seeded order, one at a time
/// on a fresh `Session`. Timing cannot move any of these numbers, so two
/// replays must agree exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Counts {
    /// `ParametricPlan::num_groups` per batch program.
    pub groups: Vec<usize>,
    /// Exact counters of every run, in replay order.
    pub runs: Vec<FrameCounts>,
    /// The Session's cache counters after the replay.
    pub cache: polymage_core::CacheStats,
    /// The hash of every output, in replay order.
    pub hashes: Vec<u64>,
}

/// Replays a workload without timing (see [`Counts`]). `scale` overrides
/// the batch programs' scale, so tests can replay cheaply.
pub fn replay_counts(
    workload: Workload,
    seed: u64,
    scale: Scale,
    requests: usize,
) -> Result<Counts, String> {
    let mut bench = Bench::new(workload, seed);
    for r in &mut bench.batch {
        let (rows, cols) = APPS[r.app].dims(scale);
        let mut fresh = Req::new(r.app, rows, cols, workload == Workload::ServeMixed);
        fresh.priority = r.priority;
        *r = fresh;
    }
    let session = Session::with_threads(WORKERS);
    let mut counts = Counts {
        groups: Vec::new(),
        runs: Vec::new(),
        cache: Default::default(),
        hashes: Vec::new(),
    };
    for r in &bench.batch {
        counts.groups.push(
            plan(r.pipeline(), &r.opts)
                .map_err(|e| e.to_string())?
                .num_groups(),
        );
    }
    let mut state = StreamState::new(&bench, seed, Vec::new());
    let order: Vec<usize> = (0..requests)
        .map(|_| state.next(bench.stream.len()))
        .collect();
    let reqs = bench
        .batch
        .iter()
        .chain(order.iter().map(|&i| &bench.stream[i]));
    for r in reqs {
        let inputs = r.bench.make_inputs(seed);
        let compiled = session
            .compile(r.pipeline(), &r.opts)
            .map_err(|e| e.to_string())?;
        let req = RunRequest::new(&compiled.program, &inputs)
            .threads(r.threads)
            .priority(r.priority);
        let (out, stats) = run_on(session.engine(), req)?;
        counts.runs.push(FrameCounts::of(&stats));
        counts.hashes.push(output_hash(&out));
    }
    counts.cache = session.cache_stats();
    Ok(counts)
}

fn run_on(engine: &Engine, req: RunRequest<'_>) -> Result<(Vec<Buffer>, RunStats), String> {
    engine
        .submit(req)
        .and_then(|h| h.join_stats())
        .map_err(|e| e.to_string())
}
