//! The multi-tenant execution engine: pooled workers shared by
//! concurrent runs, dynamic strip scheduling, and buffer reuse.
//!
//! Earlier revisions guarded the whole engine behind one `Mutex<Inner>`
//! held for the *entire* run, so concurrent callers of the same engine (or
//! of a `polymage_core::Session`) serialized: the pool accelerated one
//! frame, never a stream of requests. This engine inverts that ownership
//! model — mutable state moves from "the engine, guarded" to "the run,
//! shared-nothing":
//!
//! - [`Engine`] itself holds only immutable pool configuration, the shared
//!   [`SharedPool`] of recycled allocations, and the scheduler: the live
//!   [`RunContext`]s plus an admission cap (`max_inflight`) for
//!   backpressure.
//! - Each submitted run owns a `RunContext` with its full buffers, strip
//!   claims, and [`RunStats`]; two runs never contend on each other's
//!   state. Workers claim the next strip (or reduction chunk) from the
//!   most urgent run that has work — highest [`Priority`] first,
//!   earliest [`deadline`](RunRequest::deadline) within a band, FIFO as
//!   the tiebreak — so one pool drives many overlapping runs without a
//!   large batch run starving a small latency-sensitive one.
//! - [`Engine::submit`] takes a [`RunRequest`] (program, inputs, threads,
//!   priority, deadline, trace sink, overload policy) and returns a
//!   [`RunHandle`]; [`RunHandle::join`] blocks for the result,
//!   [`RunHandle::cancel`] (or a cloneable [`CancelToken`]) stops the run
//!   cooperatively within about one tile's worth of work, releasing its
//!   pooled buffers immediately and surfacing
//!   [`VmError::Cancelled`]. Deadline expiry cancels the same way. The
//!   historical `run*`/`submit_*` permutations survive as deprecated
//!   submit+join shims, bit-identical to their historical behavior.
//!
//! Determinism: results are bit-identical to the legacy static executor
//! ([`run_program_static`](crate::run_program_static)) for any thread
//! count, any pool size, and any number of concurrent runs. Strips write
//! disjoint slabs stitched by position (claim order cannot matter),
//! scratch arenas are re-zeroed exactly like fresh allocations, and
//! reduction partials use the requested thread count's chunk boundaries
//! and are combined in ascending chunk order regardless of which worker
//! computed them. Nothing a run computes ever reads another run's state.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::exec::{
    decl_rect, execute_reduction, execute_seq, fix_untouched_identities, reduction_views, row_size,
    run_tile, strip_layout, sweep_reduction, validate_inputs, written_stages, LocalStats, Slab,
    StripRows,
};
use crate::pool::{BufferPool, PoolStats, SharedPool};
use crate::{
    BufId, BufKind, Buffer, CancelReason, GroupKind, Program, RegFile, RunStats, TiledGroup,
    VmError,
};
use polymage_diag::{Counter, Diag, Span, Value};

/// Relative urgency of a run: workers always claim from the
/// highest-priority runnable run first. Within one priority band runs
/// order earliest-deadline-first, then FIFO by submission.
///
/// Priority changes *which run advances next*, never what a run computes:
/// completed runs stay bit-identical at every priority mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work; yields to everything else.
    Low,
    /// The default; equivalent to the historical FIFO behavior when every
    /// run uses it.
    #[default]
    Normal,
    /// Latency-sensitive work; claims workers ahead of all other bands.
    High,
}

impl Priority {
    /// Stable lower-case label (used in diag span fields and reports).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// What [`Engine::submit`] does when the engine is at its `max_inflight`
/// admission cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverloadPolicy {
    /// Wait for a slot (the historical behavior). A submission with a
    /// deadline gives up — `Err(Cancelled{Deadline})` — if the deadline
    /// expires while still blocked.
    #[default]
    Block,
    /// Return `Err(Cancelled{Shed})` immediately instead of waiting.
    FailFast,
    /// Cancel one inflight run to make room, then wait for the freed
    /// slot: preferably a run already past its deadline (any priority),
    /// otherwise the newest run of the lowest band strictly below the
    /// incoming priority. If no such victim exists this behaves like
    /// [`OverloadPolicy::Block`].
    Shed,
}

/// A typed, builder-style run submission: program and inputs plus every
/// per-run policy knob. This is the single entry point that replaced the
/// historical `submit*`/`run*`/`run_stats*` method permutations.
///
/// ```no_run
/// # use polymage_vm::{Engine, Priority, RunRequest, Program, Buffer};
/// # use std::sync::Arc;
/// # use std::time::Duration;
/// # fn demo(engine: &Engine, prog: &Arc<Program>, inputs: &[Buffer]) {
/// let handle = engine
///     .submit(
///         RunRequest::new(prog, inputs)
///             .threads(2)
///             .priority(Priority::High)
///             .deadline(Duration::from_millis(50)),
///     )
///     .unwrap();
/// let outputs = handle.join();
/// # let _ = outputs;
/// # }
/// ```
#[derive(Debug)]
pub struct RunRequest<'a> {
    prog: &'a Arc<Program>,
    inputs: &'a [Buffer],
    threads: Option<usize>,
    priority: Priority,
    deadline: Option<Instant>,
    diag: Diag,
    overload: OverloadPolicy,
    group_stats: bool,
}

impl<'a> RunRequest<'a> {
    /// A request with the defaults: all pooled workers, [`Priority::Normal`],
    /// no deadline, no tracing, blocking admission, per-group stats on.
    pub fn new(prog: &'a Arc<Program>, inputs: &'a [Buffer]) -> RunRequest<'a> {
        RunRequest {
            prog,
            inputs,
            threads: None,
            priority: Priority::default(),
            deadline: None,
            diag: Diag::noop(),
            overload: OverloadPolicy::default(),
            group_stats: true,
        }
    }

    /// Run as if the engine had `n` workers: reductions chunk for `n` and
    /// at most `min(n, pool size)` pooled workers participate, keeping
    /// results bit-identical to a dedicated `n`-thread engine.
    pub fn threads(mut self, n: usize) -> RunRequest<'a> {
        self.threads = Some(n.max(1));
        self
    }

    /// Scheduling urgency (default [`Priority::Normal`]).
    pub fn priority(mut self, p: Priority) -> RunRequest<'a> {
        self.priority = p;
        self
    }

    /// Cancel the run if it has not completed within `d` of submission.
    /// Expiry surfaces as `Err(Cancelled{reason: Deadline})` from join.
    pub fn deadline(self, d: Duration) -> RunRequest<'a> {
        self.deadline_at(Instant::now() + d)
    }

    /// Like [`RunRequest::deadline`] with an absolute expiry instant.
    pub fn deadline_at(mut self, at: Instant) -> RunRequest<'a> {
        self.deadline = Some(at);
        self
    }

    /// Structured diagnostics sink: the run's spans and events (run,
    /// groups, per-worker utilization) all carry this run's `run_id`, so
    /// traces from overlapping runs are separable.
    pub fn trace(mut self, diag: &Diag) -> RunRequest<'a> {
        self.diag = diag.clone();
        self
    }

    /// Behavior at the admission cap (default [`OverloadPolicy::Block`]).
    pub fn on_overload(mut self, policy: OverloadPolicy) -> RunRequest<'a> {
        self.overload = policy;
        self
    }

    /// Whether to record per-group wall-clock times and per-worker
    /// utilization into [`RunStats`] (default `true`). Opting out skips
    /// the per-group bookkeeping for latency-critical serving paths;
    /// scalar counters (tiles, points, caches) are collected regardless.
    pub fn group_stats(mut self, on: bool) -> RunRequest<'a> {
        self.group_stats = on;
        self
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poisoning is benign everywhere this helper is used: every critical
    // section either only moves buffers between containers or is followed
    // by an explicit `failed`/`result` check, so a panicking holder cannot
    // leave state that a later holder would misread.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Shared state of one tiled-group execution (one run, one group).
struct TiledTask {
    /// Index of the [`GroupKind::Tiled`] group in the run's program.
    group: usize,
    /// Snapshot of every buffer the group does not write (read-only).
    reads: Vec<Option<Arc<Vec<f32>>>>,
    /// `(stage index, full buffer)` pairs the group writes.
    written: Vec<(usize, BufId)>,
    strip_rows: StripRows,
    tiles_by_strip: Vec<Vec<usize>>,
}

/// Shared state of one parallel-reduction execution.
struct ReduceTask {
    /// Index of the [`GroupKind::Reduction`] group in the run's program.
    group: usize,
    reads: Vec<Option<Arc<Vec<f32>>>>,
    /// Outer-dimension chunks, ascending; claimed by index.
    chunks: Vec<(i64, i64)>,
    out_len: usize,
    identity: f32,
}

/// One computed slab of a written full buffer (pool-backed).
struct SlabPart {
    buf: BufId,
    row_lo: i64,
    data: Vec<f32>,
}

/// What a run currently needs from the worker pool.
enum Phase {
    /// A worker must pick the run up and advance it (initial setup,
    /// sequential groups, group finalization).
    Advance,
    /// One worker is inside the advance logic; nobody else may touch it.
    Advancing,
    /// A tiled group is claimable strip-by-strip.
    Tiled(Arc<TiledTask>),
    /// A reduction is claimable chunk-by-chunk.
    Reduce(Arc<ReduceTask>),
    /// The run has a result; it is leaving (or has left) the scheduler.
    Complete,
}

/// Which kind of group just drained and awaits finalization.
enum Finalize {
    Tiled,
    Reduce,
}

/// The latched cancellation signal of one run: 0 = live, otherwise the
/// discriminant of the first [`CancelReason`] + 1. Written at most once
/// (first signal wins) and read lock-free at every cancellation point.
struct CancelCell(AtomicU8);

impl CancelCell {
    fn new() -> CancelCell {
        CancelCell(AtomicU8::new(0))
    }

    fn get(&self) -> Option<CancelReason> {
        match self.0.load(Ordering::Acquire) {
            0 => None,
            1 => Some(CancelReason::Caller),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::Shutdown),
            _ => Some(CancelReason::Shed),
        }
    }

    /// Latches `reason` if no reason is set yet; returns whether this call
    /// was the one that set it.
    fn set(&self, reason: CancelReason) -> bool {
        let code = match reason {
            CancelReason::Caller => 1,
            CancelReason::Deadline => 2,
            CancelReason::Shutdown => 3,
            CancelReason::Shed => 4,
        };
        self.0
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The mutable half of a run — owned by the run, never by the engine.
struct RunState {
    fulls: Vec<Vec<f32>>,
    /// Index of the group being set up / executed.
    group: usize,
    phase: Phase,
    /// Set by the worker that drains the last claim; consumed by advance.
    finalize: Option<Finalize>,
    stats: RunStats,
    /// Pool worker id per participation slot (slot = index). At most
    /// `effective` distinct workers ever join a run.
    slots: Vec<usize>,
    /// Per-slot (tiles, busy) for the current group's diag worker events.
    group_worker: Vec<(u64, Duration)>,
    /// The coordinator-side handle on buffers snapshotted into the current
    /// task; recovered via `Arc::try_unwrap` at finalization.
    reads_keep: Vec<Option<Arc<Vec<f32>>>>,
    /// Next strip/chunk to hand out for the current task.
    next_claim: usize,
    /// Total strips/chunks of the current task.
    total_claims: usize,
    /// Claims handed out but not yet merged back.
    outstanding: usize,
    /// First failure (worker panic or internal error); claims stop.
    failed: Option<VmError>,
    /// Bytes of this run's full buffers currently resident (the peak goes
    /// to `stats.peak_full_bytes`).
    cur_full_bytes: u64,
    /// Reduction output being accumulated (identity-filled).
    red_out: Vec<f32>,
    /// Reduction partials by chunk index.
    red_parts: Vec<Option<Vec<f32>>>,
    group_start: Instant,
    group_span: Option<Span>,
    run_span: Option<Span>,
    /// Whether a worker has picked the run up yet; the first pickup
    /// records [`RunStats::sched_wait`].
    started: bool,
}

/// A completed run's result and final statistics.
type Outcome = (Result<Vec<Buffer>, VmError>, RunStats);

/// One concurrent run: its program, its thread policy, and all of its
/// mutable execution state.
struct RunContext {
    run_id: u64,
    prog: Arc<Program>,
    /// Requested thread count: fixes reduction chunk boundaries so results
    /// stay bit-identical to `run_program_static(.., req_threads)`.
    req_threads: usize,
    /// `min(req_threads, pool size)`: at most this many distinct pooled
    /// workers ever execute the run's tiles/chunks, and `RunStats`'
    /// per-worker vectors have exactly this length.
    effective: usize,
    /// Per buffer: provably overwritten in full before being read, so its
    /// (lazy or eager) acquisition may skip the zero-fill.
    overwritten: Vec<bool>,
    priority: Priority,
    deadline: Option<Instant>,
    /// When `Engine::submit` accepted the request (admission wait included
    /// — `sched_wait` measures the full submit-to-first-claim delay).
    submitted: Instant,
    /// Whether per-group times / per-worker utilization are recorded.
    group_stats: bool,
    cancel: CancelCell,
    diag: Diag,
    state: Mutex<RunState>,
    /// The completion slot, filled once by `complete_run`. Observers
    /// (`is_finished`, joins) lock only this, never `state`: a holder of
    /// `state` makes the workers' `try_lock` scan skip the run, and an
    /// observer never notifies `work_cv` when it lets go.
    done: Mutex<Option<Outcome>>,
    done_cv: Condvar,
}

impl RunContext {
    /// The run's live cancellation signal; converts deadline expiry into a
    /// latched [`CancelReason::Deadline`] on first observation, so every
    /// cancellation point doubles as a deadline check.
    fn cancel_reason(&self) -> Option<CancelReason> {
        if let Some(r) = self.cancel.get() {
            return Some(r);
        }
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                self.cancel.set(CancelReason::Deadline);
                return self.cancel.get();
            }
        }
        None
    }
}

/// The scheduler: live runs in submission order plus admission state.
struct Sched {
    /// Live runs in submission order. Present from submission until
    /// completion; workers scan them in policy order — highest priority
    /// first, earliest deadline within a band, submission order (run id)
    /// as the tiebreak — so equal-policy runs keep the historical FIFO
    /// service.
    runs: Vec<Arc<RunContext>>,
    inflight: usize,
    max_inflight: usize,
    shutdown: bool,
}

/// Everything workers and submitters share.
struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here for claimable work.
    work_cv: Condvar,
    /// Submitters wait here for an admission slot.
    admit_cv: Condvar,
    pool: SharedPool,
    next_run_id: AtomicU64,
    /// Bytes of full buffers currently held by live runs (engine-global;
    /// excludes slabs, partials, and scratch arenas).
    full_bytes: AtomicU64,
    /// High-water mark of [`Shared::full_bytes`] (monotone).
    full_peak: AtomicU64,
    /// Engine-global counters already flushed to diag; guards the flush
    /// deltas.
    flushed: Mutex<FlushedCounters>,
    /// Claim grants that jumped ahead of an earlier live submission.
    sched_preempts: AtomicU64,
    /// Admission sheds: fail-fast rejections + cancelled inflight victims.
    sched_sheds: AtomicU64,
    /// Runs completed as cancelled (any reason), plus deadline-expired
    /// submissions that never got past admission.
    sched_cancels: AtomicU64,
    /// Cancellations whose reason was a missed deadline.
    sched_deadline_misses: AtomicU64,
}

/// Snapshot of engine-global counters at the last diag flush.
#[derive(Default)]
struct FlushedCounters {
    pool: crate::PoolStats,
    peak_full_bytes: u64,
    sched_preempts: u64,
    sched_sheds: u64,
    sched_cancels: u64,
    sched_deadline_misses: u64,
}

/// Work handed to one worker for one step.
enum Work {
    Advance(Arc<RunContext>),
    Strip {
        run: Arc<RunContext>,
        task: Arc<TiledTask>,
        strip: usize,
        slot: usize,
    },
    Chunk {
        run: Arc<RunContext>,
        task: Arc<ReduceTask>,
        chunk: usize,
        slot: usize,
    },
}

/// A persistent multi-tenant execution engine.
///
/// Construction spawns the worker threads once; every run — submitted
/// asynchronously with [`Engine::submit`] or synchronously with
/// [`Engine::run`] — executes on them, together with recycled scratch
/// arenas and a size-class-sharded [`SharedPool`] of output/partial
/// allocations. Multiple runs execute **concurrently**: each owns its own
/// buffers, claims, and statistics, and workers interleave strips from
/// every live run (earliest submission first). Results are bit-identical
/// to a run that had the engine to itself.
///
/// Admission is capped: at most `max_inflight` runs are live at once and
/// further submissions block, bounding memory under load.
///
/// Dropping the engine completes every pending run, then shuts the
/// workers down and joins them.
pub struct Engine {
    nthreads: usize,
    shared: Arc<Shared>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

/// A handle on a submitted run; redeem it with [`RunHandle::join`] (or
/// [`RunHandle::join_stats`]) for the outputs, or stop the run early with
/// [`RunHandle::cancel`]. The run makes progress whether or not anyone is
/// joining.
pub struct RunHandle {
    run: Arc<RunContext>,
    shared: Weak<Shared>,
}

impl std::fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle")
            .field("run_id", &self.run.run_id)
            .finish()
    }
}

impl RunHandle {
    /// The engine-unique id of this run (also stamped on every diag span
    /// and event the run emits, as `run_id`).
    pub fn run_id(&self) -> u64 {
        self.run.run_id
    }

    /// Whether the run has finished (joining would not block).
    pub fn is_finished(&self) -> bool {
        lock(&self.run.done).is_some()
    }

    /// Requests cooperative cancellation: workers observe the signal at
    /// the next tile boundary (mid-strip), claim grant, or group advance —
    /// whichever comes first — so the run stops within about one tile's
    /// worth of work, releases its pooled buffers immediately, and joins
    /// as `Err(Cancelled{reason: Caller})`. Idempotent; a no-op once the
    /// run has completed (the first signal wins and completion latches the
    /// result).
    pub fn cancel(&self) {
        self.cancel_token().cancel();
    }

    /// A cloneable, `'static` token that cancels this run — hand it to a
    /// watchdog or timeout thread while another thread holds the handle
    /// to join.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            run: Arc::clone(&self.run),
            shared: self.shared.clone(),
        }
    }

    /// Blocks until the run completes and returns its live-out buffers, in
    /// [`Program::outputs`] order.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] when the run failed (worker panic or internal
    /// invariant violation) or was cancelled ([`VmError::Cancelled`]).
    pub fn join(self) -> Result<Vec<Buffer>, VmError> {
        self.join_stats().map(|(out, _)| out)
    }

    /// Like [`RunHandle::join`], additionally returning execution
    /// statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RunHandle::join`].
    pub fn join_stats(self) -> Result<(Vec<Buffer>, RunStats), VmError> {
        let (result, stats) = self.join_outcome();
        result.map(|out| (out, stats))
    }

    /// Blocks until the run completes and returns its result *and* its
    /// statistics, even on failure — a cancelled run's
    /// [`RunStats::cancelled_tiles`] and [`RunStats::sched_wait`] are
    /// only reachable this way.
    pub fn join_outcome(self) -> (Result<Vec<Buffer>, VmError>, RunStats) {
        let mut done = lock(&self.run.done);
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            done = self
                .run
                .done_cv
                .wait(done)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Cancels one run cooperatively; obtained from
/// [`RunHandle::cancel_token`]. Cloneable and independent of the handle's
/// lifetime — it stays valid (and harmlessly inert) after the run
/// completes or the engine is dropped.
#[derive(Clone)]
pub struct CancelToken {
    run: Arc<RunContext>,
    shared: Weak<Shared>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("run_id", &self.run.run_id)
            .field("cancelled", &self.run.cancel.get())
            .finish()
    }
}

impl CancelToken {
    /// The id of the run this token cancels.
    pub fn run_id(&self) -> u64 {
        self.run.run_id
    }

    /// Whether a cancellation signal has been latched for the run.
    pub fn is_cancelled(&self) -> bool {
        self.run.cancel.get().is_some()
    }

    /// Signals cancellation (see [`RunHandle::cancel`]). Idempotent.
    pub fn cancel(&self) {
        if self.run.cancel.set(CancelReason::Caller) {
            // Wake sleeping workers so an idle engine notices immediately.
            if let Some(shared) = self.shared.upgrade() {
                notify_workers(&shared);
            }
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("nthreads", &self.nthreads)
            .field("max_inflight", &self.max_inflight())
            .finish()
    }
}

impl Engine {
    /// An engine with one worker per available hardware thread.
    pub fn new() -> Engine {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine::with_threads(n)
    }

    /// An engine with exactly `nthreads` pooled workers (minimum 1) and
    /// the default admission cap of `2 × nthreads` concurrent runs.
    pub fn with_threads(nthreads: usize) -> Engine {
        let nthreads = nthreads.max(1);
        Engine::with_threads_and_inflight(nthreads, 2 * nthreads)
    }

    /// An engine with exactly `nthreads` pooled workers and an explicit
    /// admission cap: at most `max_inflight` runs (minimum 1) are live at
    /// once; [`Engine::submit`] blocks past the cap until a run completes.
    pub fn with_threads_and_inflight(nthreads: usize, max_inflight: usize) -> Engine {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                runs: Vec::new(),
                inflight: 0,
                max_inflight: max_inflight.max(1),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
            pool: SharedPool::new(),
            next_run_id: AtomicU64::new(1),
            full_bytes: AtomicU64::new(0),
            full_peak: AtomicU64::new(0),
            flushed: Mutex::new(FlushedCounters::default()),
            sched_preempts: AtomicU64::new(0),
            sched_sheds: AtomicU64::new(0),
            sched_cancels: AtomicU64::new(0),
            sched_deadline_misses: AtomicU64::new(0),
        });
        let mut joins = Vec::with_capacity(nthreads);
        for i in 0..nthreads {
            let shared = Arc::clone(&shared);
            let join = std::thread::Builder::new()
                .name(format!("pm-worker-{i}"))
                .spawn(move || worker_main(i, shared))
                .expect("spawn engine worker");
            joins.push(join);
        }
        Engine {
            nthreads,
            shared,
            joins,
        }
    }

    /// Number of pooled workers.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The admission cap: maximum concurrently live runs.
    pub fn max_inflight(&self) -> usize {
        lock(&self.shared.sched).max_inflight
    }

    /// Submits a [`RunRequest`] and returns immediately; the run executes
    /// on the pool, concurrently with any other live runs, scheduled by
    /// its priority and deadline.
    ///
    /// Blocks only while the engine is at its `max_inflight` admission cap
    /// and the request's [`OverloadPolicy`] says to wait. The admission
    /// slot is reserved *before* the run's buffers are allocated, so a
    /// backlog of blocked submitters holds no memory.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] when the inputs do not match the program's
    /// images, or [`VmError::Cancelled`] when admission rejected the run
    /// (fail-fast shed, deadline expired while blocked, engine shutting
    /// down). Execution-time failures surface from [`RunHandle::join`].
    pub fn submit(&self, req: RunRequest<'_>) -> Result<RunHandle, VmError> {
        let submitted = Instant::now();
        let prog = req.prog;
        validate_inputs(prog, req.inputs)?;
        let req_threads = req.threads.unwrap_or(self.nthreads).max(1);
        let effective = req_threads.min(self.nthreads);

        // Reserve an admission slot *before* allocating the run's buffers,
        // so a backlog of blocked submitters holds no memory.
        {
            let mut sched = lock(&self.shared.sched);
            let mut shed_attempted = false;
            loop {
                if sched.shutdown {
                    self.count_rejection(CancelReason::Shutdown);
                    return Err(VmError::Cancelled {
                        reason: CancelReason::Shutdown,
                    });
                }
                if sched.inflight < sched.max_inflight {
                    break;
                }
                if let Some(dl) = req.deadline {
                    if Instant::now() >= dl {
                        self.count_rejection(CancelReason::Deadline);
                        return Err(VmError::Cancelled {
                            reason: CancelReason::Deadline,
                        });
                    }
                }
                match req.overload {
                    OverloadPolicy::Block => {}
                    OverloadPolicy::FailFast => {
                        self.count_rejection(CancelReason::Shed);
                        return Err(VmError::Cancelled {
                            reason: CancelReason::Shed,
                        });
                    }
                    OverloadPolicy::Shed => {
                        // Shed at most one victim per submission, then wait
                        // for its slot like Block (the victim drains within
                        // about one tile).
                        if !shed_attempted {
                            shed_attempted = true;
                            if let Some(victim) = shed_victim(&sched.runs, req.priority) {
                                // A victim already past its deadline was
                                // doomed anyway; label it honestly.
                                let reason = if victim.deadline.is_some_and(|d| Instant::now() >= d)
                                {
                                    CancelReason::Deadline
                                } else {
                                    CancelReason::Shed
                                };
                                if victim.cancel.set(reason) {
                                    self.shared.sched_sheds.fetch_add(1, Ordering::Relaxed);
                                    self.shared.work_cv.notify_all();
                                }
                            }
                        }
                    }
                }
                // Deadline-bearing submitters sleep with a timeout so their
                // own expiry is noticed without external wakeups.
                sched = match req.deadline {
                    Some(dl) => {
                        let dur = dl.saturating_duration_since(Instant::now());
                        self.shared
                            .admit_cv
                            .wait_timeout(sched, dur)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => self
                        .shared
                        .admit_cv
                        .wait(sched)
                        .unwrap_or_else(|e| e.into_inner()),
                };
            }
            sched.inflight += 1;
        }

        let diag = req.diag;
        let run_span = diag.begin();
        // Full buffers come from the shared pool. Buffers the run provably
        // overwrites in full skip the zero-fill: input images are copied
        // whole below, tiled sinks' tile stores exactly partition a buffer
        // sized exactly to the stage domain (the validator's coverage
        // invariant), and reduction outputs are filled with the identity
        // before combining. Sequential-scan outputs stay zero-filled —
        // they may write partially and read their own zero-for-undefined
        // border.
        let mut overwritten = vec![false; prog.buffers.len()];
        for &b in &prog.image_bufs {
            overwritten[b.0] = true;
        }
        for group in &prog.groups {
            match &group.kind {
                GroupKind::Tiled(tg) => {
                    for s in &tg.stages {
                        if let Some(b) = s.full {
                            overwritten[b.0] = true;
                        }
                    }
                }
                GroupKind::Reduction(red) => overwritten[red.out.0] = true,
                GroupKind::Sequential(_) => {}
            }
        }
        // Only buffers the storage plan scopes to the whole run (input
        // images, live-outs, and everything under the legacy run-scoped
        // plan) materialize here; the rest acquire lazily when the group
        // walk first reaches their `acquire_group`.
        let mut acquired_bytes = 0u64;
        let mut fulls: Vec<Vec<f32>> = prog
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| match b.kind {
                BufKind::Full if prog.storage.acquire_group[i].is_none() => {
                    acquired_bytes += (b.len() * 4) as u64;
                    if overwritten[i] {
                        self.shared.pool.acquire(b.len())
                    } else {
                        self.shared.pool.acquire_zeroed(b.len())
                    }
                }
                BufKind::Full | BufKind::Scratch => Vec::new(),
            })
            .collect();
        for (&b, input) in prog.image_bufs.iter().zip(req.inputs) {
            fulls[b.0].copy_from_slice(&input.data);
        }
        let cur = self
            .shared
            .full_bytes
            .fetch_add(acquired_bytes, Ordering::Relaxed)
            + acquired_bytes;
        self.shared.full_peak.fetch_max(cur, Ordering::Relaxed);

        let nbufs = prog.buffers.len();
        let run = Arc::new(RunContext {
            run_id: self.shared.next_run_id.fetch_add(1, Ordering::Relaxed),
            prog: Arc::clone(prog),
            req_threads,
            effective,
            overwritten,
            priority: req.priority,
            deadline: req.deadline,
            submitted,
            group_stats: req.group_stats,
            cancel: CancelCell::new(),
            diag: diag.clone(),
            state: Mutex::new(RunState {
                fulls,
                group: 0,
                phase: Phase::Advance,
                finalize: None,
                stats: RunStats {
                    worker_tiles: vec![0; effective],
                    worker_busy: vec![Duration::ZERO; effective],
                    peak_full_bytes: acquired_bytes,
                    ..RunStats::default()
                },
                slots: Vec::new(),
                group_worker: vec![(0, Duration::ZERO); effective],
                reads_keep: vec![None; nbufs],
                next_claim: 0,
                total_claims: 0,
                outstanding: 0,
                failed: None,
                cur_full_bytes: acquired_bytes,
                red_out: Vec::new(),
                red_parts: Vec::new(),
                group_start: Instant::now(),
                group_span: None,
                run_span: Some(run_span),
                started: false,
            }),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });

        let mut sched = lock(&self.shared.sched);
        sched.runs.push(Arc::clone(&run));
        self.shared.work_cv.notify_all();
        drop(sched);
        Ok(RunHandle {
            run,
            shared: Arc::downgrade(&self.shared),
        })
    }

    /// Counts a submission the engine turned away at admission.
    fn count_rejection(&self, reason: CancelReason) {
        self.shared.sched_cancels.fetch_add(1, Ordering::Relaxed);
        match reason {
            CancelReason::Shed => {
                self.shared.sched_sheds.fetch_add(1, Ordering::Relaxed);
            }
            CancelReason::Deadline => {
                self.shared
                    .sched_deadline_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// A snapshot of the shared buffer pool's counters
    /// ([`PoolStats::retained_bytes`] included) — the serving-layer leak
    /// check: after every handle resolves, retained bytes must equal what
    /// the pool actually holds (see
    /// [`Engine::pool_audit_retained_bytes`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Recounts the pooled bytes by walking the shards (O(free lists));
    /// equals [`PoolStats::retained_bytes`] unless accounting has leaked.
    pub fn pool_audit_retained_bytes(&self) -> usize {
        self.shared.pool.audit_retained_bytes()
    }

    /// Bytes of full buffers currently held by live runs (engine-global).
    /// Zero when the engine is idle — cancelled runs release their
    /// buffers at completion like finished ones.
    pub fn live_full_bytes(&self) -> u64 {
        self.shared.full_bytes.load(Ordering::Relaxed)
    }

    /// Submits a run using all pooled workers.
    #[deprecated(note = "use Engine::submit(RunRequest::new(prog, inputs))")]
    pub fn submit_default(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
    ) -> Result<RunHandle, VmError> {
        self.submit(RunRequest::new(prog, inputs))
    }

    /// Submits a run that behaves as if the engine had `nthreads` workers.
    #[deprecated(note = "use Engine::submit(RunRequest::new(prog, inputs).threads(n))")]
    pub fn submit_with_threads(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
        nthreads: usize,
    ) -> Result<RunHandle, VmError> {
        self.submit(RunRequest::new(prog, inputs).threads(nthreads))
    }

    /// Submits a run with an explicit thread count and diagnostics sink.
    #[deprecated(note = "use Engine::submit(RunRequest::new(prog, inputs).threads(n).trace(diag))")]
    pub fn submit_traced(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
        nthreads: usize,
        diag: &Diag,
    ) -> Result<RunHandle, VmError> {
        self.submit(RunRequest::new(prog, inputs).threads(nthreads).trace(diag))
    }

    /// Runs a program using all pooled workers, blocking for the result.
    #[deprecated(note = "use Engine::submit(RunRequest::new(prog, inputs)) + RunHandle::join")]
    pub fn run(&self, prog: &Arc<Program>, inputs: &[Buffer]) -> Result<Vec<Buffer>, VmError> {
        self.submit(RunRequest::new(prog, inputs))?.join()
    }

    /// [`Engine::run`] with an explicit per-run thread count.
    #[deprecated(
        note = "use Engine::submit(RunRequest::new(prog, inputs).threads(n)) + RunHandle::join"
    )]
    pub fn run_with_threads(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
        nthreads: usize,
    ) -> Result<Vec<Buffer>, VmError> {
        self.submit(RunRequest::new(prog, inputs).threads(nthreads))?
            .join()
    }

    /// [`Engine::run`] with execution statistics.
    #[deprecated(
        note = "use Engine::submit(RunRequest::new(prog, inputs)) + RunHandle::join_stats"
    )]
    pub fn run_stats(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
    ) -> Result<(Vec<Buffer>, RunStats), VmError> {
        self.submit(RunRequest::new(prog, inputs))?.join_stats()
    }

    /// [`Engine::run_with_threads`] with statistics.
    #[deprecated(
        note = "use Engine::submit(RunRequest::new(prog, inputs).threads(n)) + RunHandle::join_stats"
    )]
    pub fn run_stats_with_threads(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
        nthreads: usize,
    ) -> Result<(Vec<Buffer>, RunStats), VmError> {
        self.submit(RunRequest::new(prog, inputs).threads(nthreads))?
            .join_stats()
    }

    /// [`Engine::run_stats_with_threads`] with a diagnostics sink.
    #[deprecated(
        note = "use Engine::submit(RunRequest::new(prog, inputs).threads(n).trace(diag)) + RunHandle::join_stats"
    )]
    pub fn run_stats_traced(
        &self,
        prog: &Arc<Program>,
        inputs: &[Buffer],
        nthreads: usize,
        diag: &Diag,
    ) -> Result<(Vec<Buffer>, RunStats), VmError> {
        self.submit(RunRequest::new(prog, inputs).threads(nthreads).trace(diag))?
            .join_stats()
    }
}

/// Picks the run admission control sacrifices under
/// [`OverloadPolicy::Shed`]: a not-yet-cancelled run already past its
/// deadline (lowest priority first — it is pure waste either way), else
/// the *newest* run of the lowest priority band strictly below the
/// incoming submission (newest loses the least sunk work). `None` when
/// every inflight run is at or above the incoming priority and within its
/// deadline.
fn shed_victim(runs: &[Arc<RunContext>], incoming: Priority) -> Option<Arc<RunContext>> {
    let now = Instant::now();
    let live = || runs.iter().filter(|r| r.cancel.get().is_none());
    if let Some(expired) = live()
        .filter(|r| r.deadline.is_some_and(|d| now >= d))
        .min_by_key(|r| r.priority)
    {
        return Some(Arc::clone(expired));
    }
    live()
        .filter(|r| r.priority < incoming)
        .min_by_key(|r| (r.priority, std::cmp::Reverse(r.run_id)))
        .map(Arc::clone)
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut sched = lock(&self.shared.sched);
            sched.shutdown = true;
            // Workers drain every pending run before exiting, so
            // outstanding `RunHandle`s stay redeemable.
            self.shared.work_cv.notify_all();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling: how workers find and claim work.
// ---------------------------------------------------------------------------

/// Looks up (or assigns) this run's participation slot for a pool worker.
/// Returns `None` when the run's worker cap is exhausted by other workers.
fn slot_for(st: &mut RunState, worker: usize, effective: usize) -> Option<usize> {
    if let Some(i) = st.slots.iter().position(|&w| w == worker) {
        return Some(i);
    }
    if st.slots.len() < effective {
        st.slots.push(worker);
        return Some(st.slots.len() - 1);
    }
    None
}

/// Asks one run for a unit of work. Uses `try_lock` so a busy run (one
/// worker stitching or advancing) never blocks the scheduler scan — the
/// scan just moves on to the next run. A cancelled run hands out no new
/// claims; instead the poll drives it toward completion (claim-grant
/// granularity is the coarsest cancellation point).
fn poll(run: &Arc<RunContext>, worker: usize) -> Option<Work> {
    let mut st = match run.state.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => return None,
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
    };
    if let Some(reason) = run.cancel_reason() {
        return poll_cancelled(run, st, reason);
    }
    match &st.phase {
        Phase::Advance => {
            st.phase = Phase::Advancing;
            Some(Work::Advance(Arc::clone(run)))
        }
        Phase::Tiled(task) => {
            if st.next_claim >= st.total_claims {
                return None;
            }
            let task = Arc::clone(task);
            let slot = slot_for(&mut st, worker, run.effective)?;
            let strip = st.next_claim;
            st.next_claim += 1;
            st.outstanding += 1;
            Some(Work::Strip {
                run: Arc::clone(run),
                task,
                strip,
                slot,
            })
        }
        Phase::Reduce(task) => {
            if st.next_claim >= st.total_claims {
                return None;
            }
            let task = Arc::clone(task);
            let slot = slot_for(&mut st, worker, run.effective)?;
            let chunk = st.next_claim;
            st.next_claim += 1;
            st.outstanding += 1;
            Some(Work::Chunk {
                run: Arc::clone(run),
                task,
                chunk,
                slot,
            })
        }
        Phase::Advancing | Phase::Complete => None,
    }
}

/// Drives a cancelled run toward completion without granting new claims:
/// latches the `Cancelled` failure, counts the work it skipped, and — once
/// nothing is outstanding — routes the run through the normal
/// finalize/advance path so buffers are recovered and released exactly
/// like on any other failure. In-flight strips notice the signal at their
/// next tile boundary; the last one to merge triggers finalization.
fn poll_cancelled(
    run: &Arc<RunContext>,
    mut st: MutexGuard<'_, RunState>,
    reason: CancelReason,
) -> Option<Work> {
    match &st.phase {
        Phase::Advance => {
            st.phase = Phase::Advancing;
            Some(Work::Advance(Arc::clone(run)))
        }
        Phase::Tiled(task) => {
            if st.next_claim < st.total_claims {
                let task = Arc::clone(task);
                let skipped: u64 = task.tiles_by_strip[st.next_claim..st.total_claims]
                    .iter()
                    .map(|tiles| tiles.len() as u64)
                    .sum();
                st.stats.cancelled_tiles += skipped;
                st.next_claim = st.total_claims;
                if st.failed.is_none() {
                    st.failed = Some(VmError::Cancelled { reason });
                }
            }
            drained_by_cancel(run, st, Finalize::Tiled)
        }
        Phase::Reduce(_) => {
            if st.next_claim < st.total_claims {
                st.stats.cancelled_tiles += (st.total_claims - st.next_claim) as u64;
                st.next_claim = st.total_claims;
                if st.failed.is_none() {
                    st.failed = Some(VmError::Cancelled { reason });
                }
            }
            drained_by_cancel(run, st, Finalize::Reduce)
        }
        Phase::Advancing | Phase::Complete => None,
    }
}

/// If halting the claims left nothing outstanding, the polling worker
/// itself finalizes the cancelled group (otherwise the last in-flight
/// claim's merge does, via `finish_claim`).
fn drained_by_cancel(
    run: &Arc<RunContext>,
    mut st: MutexGuard<'_, RunState>,
    fin: Finalize,
) -> Option<Work> {
    if st.outstanding == 0 && st.finalize.is_none() {
        st.finalize = Some(fin);
        st.phase = Phase::Advancing;
        return Some(Work::Advance(Arc::clone(run)));
    }
    None
}

/// The scan order of one run: priority band first (high before low),
/// earliest deadline within the band (deadline-less runs last), submission
/// order as the final tiebreak — so an all-default workload degenerates to
/// the historical FIFO.
fn sched_key(r: &RunContext) -> (std::cmp::Reverse<Priority>, bool, Instant, u64) {
    (
        std::cmp::Reverse(r.priority),
        r.deadline.is_none(),
        r.deadline.unwrap_or(r.submitted),
        r.run_id,
    )
}

fn find_work(runs: &[Arc<RunContext>], worker: usize, preempts: &AtomicU64) -> Option<Work> {
    if runs.len() <= 1 {
        return runs.first().and_then(|r| poll(r, worker));
    }
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| sched_key(&runs[i]));
    for &i in &order {
        if let Some(w) = poll(&runs[i], worker) {
            // A grant "preempts" when the policy put the chosen run ahead
            // of an earlier-submitted live run.
            let chosen = &runs[i];
            if runs
                .iter()
                .any(|r| r.run_id < chosen.run_id && sched_key(r) > sched_key(chosen))
            {
                preempts.fetch_add(1, Ordering::Relaxed);
            }
            return Some(w);
        }
    }
    None
}

fn notify_workers(shared: &Shared) {
    // Taking the scheduler lock serializes the notification with any
    // worker's scan→wait transition, so wakeups are never lost.
    let _sched = lock(&shared.sched);
    shared.work_cv.notify_all();
}

/// Per-worker, per-run execution state: the scratch arena for the run's
/// current tiled group and a persistent register file. Keyed by `run_id`
/// so interleaving strips from different runs never share kernel state
/// (the register file's uniform-row cache is additionally epoch-guarded,
/// but keeping it per run makes the isolation structural).
struct WorkerRun {
    group: usize,
    /// Packed scratch arena for the run's current tiled group (slot
    /// offsets come from the group's [`crate::ScratchSlots`]).
    arena: Vec<f32>,
    regs: RegFile,
}

/// Worker-local per-run states are evicted wholesale past this count (a
/// worker rarely interleaves more than a handful of live runs; the cap
/// only bounds leakage from completed runs the worker never revisits).
const WORKER_RUN_CAP: usize = 16;

fn worker_main(index: usize, shared: Arc<Shared>) {
    // Worker-local arena freelist, reused across strips, groups, and runs.
    let mut arena_pool = BufferPool::new();
    let mut runs: HashMap<u64, WorkerRun> = HashMap::new();
    loop {
        let work = {
            let mut sched = lock(&shared.sched);
            loop {
                if sched.shutdown && sched.runs.is_empty() {
                    return;
                }
                if let Some(w) = find_work(&sched.runs, index, &shared.sched_preempts) {
                    break w;
                }
                // A queued run's deadline must fire even if no external
                // event wakes the pool: sleep no longer than the earliest
                // live deadline.
                let next_deadline = sched.runs.iter().filter_map(|r| r.deadline).min();
                sched = match next_deadline {
                    Some(dl) => {
                        let dur = dl
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_micros(100));
                        shared
                            .work_cv
                            .wait_timeout(sched, dur)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => shared
                        .work_cv
                        .wait(sched)
                        .unwrap_or_else(|e| e.into_inner()),
                };
            }
        };
        match work {
            Work::Advance(run) => advance(&shared, &run),
            Work::Strip {
                run,
                task,
                strip,
                slot,
            } => exec_strip(&shared, &run, task, strip, slot, &mut runs, &mut arena_pool),
            Work::Chunk {
                run,
                task,
                chunk,
                slot,
            } => exec_chunk(&shared, &run, task, chunk, slot),
        }
    }
}

/// The per-worker scratch/register state for one run's current group,
/// (re)built on group change.
fn worker_run_state<'a>(
    runs: &'a mut HashMap<u64, WorkerRun>,
    arena_pool: &mut BufferPool,
    run: &RunContext,
    group: usize,
    tg: &TiledGroup,
) -> &'a mut WorkerRun {
    if runs.len() >= WORKER_RUN_CAP && !runs.contains_key(&run.run_id) {
        for (_, wr) in runs.drain() {
            arena_pool.release(wr.arena);
        }
    }
    let wr = runs.entry(run.run_id).or_insert_with(|| WorkerRun {
        group: usize::MAX,
        arena: Vec::new(),
        regs: RegFile::new(),
    });
    if wr.group != group {
        arena_pool.release(std::mem::take(&mut wr.arena));
        // Packed scratch arena, zero-filled exactly like a fresh
        // allocation (consumers may read the zeroed border of a producer's
        // region).
        wr.arena = arena_pool.acquire_zeroed(tg.slots.arena_len);
        wr.group = group;
    }
    wr
}

/// Executes one claimed strip: computes its slabs, then merges them (and
/// the strip's counters) into the run under the run's own lock. The last
/// merge of a drained group finalizes it inline.
fn exec_strip(
    shared: &Arc<Shared>,
    run: &Arc<RunContext>,
    task: Arc<TiledTask>,
    strip: usize,
    slot: usize,
    runs: &mut HashMap<u64, WorkerRun>,
    arena_pool: &mut BufferPool,
) {
    let start = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_strip(shared, run, &task, strip, runs, arena_pool)
    }));
    drop(task); // release the shared task before merging (see finalize)
    let busy = start.elapsed();

    let mut st = lock(&run.state);
    match res {
        Ok((parts, local)) => {
            let prog = &*run.prog;
            for part in parts {
                let decl = &prog.buffers[part.buf.0];
                let off = ((part.row_lo - decl.origin[0]) * row_size(decl)) as usize;
                st.fulls[part.buf.0][off..off + part.data.len()].copy_from_slice(&part.data);
                shared.pool.release(part.data);
            }
            absorb_local(&mut st, slot, &local, busy);
        }
        Err(p) => fail(&mut st, p),
    }
    finish_claim(shared, run, st);
}

/// Executes one claimed reduction chunk.
fn exec_chunk(
    shared: &Arc<Shared>,
    run: &Arc<RunContext>,
    task: Arc<ReduceTask>,
    chunk: usize,
    slot: usize,
) {
    let start = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| run_chunk(shared, run, &task, chunk)));
    drop(task);
    let busy = start.elapsed();

    let mut st = lock(&run.state);
    match res {
        Ok(part) => {
            st.red_parts[chunk] = Some(part);
            absorb_local(&mut st, slot, &LocalStats::default(), busy);
        }
        Err(p) => fail(&mut st, p),
    }
    finish_claim(shared, run, st);
}

/// Records a strip/chunk failure: the run stops handing out claims and
/// completes with the first error once outstanding work drains.
fn fail(st: &mut RunState, p: Box<dyn std::any::Any + Send>) {
    if st.failed.is_none() {
        st.failed = Some(VmError::Internal(format!(
            "worker panicked: {}",
            panic_text(p)
        )));
    }
    st.next_claim = st.total_claims; // stop granting claims
}

/// Closes out one claim; the worker that drains the last one finalizes
/// the group (and keeps advancing the run) inline.
fn finish_claim(shared: &Arc<Shared>, run: &Arc<RunContext>, mut st: MutexGuard<'_, RunState>) {
    st.outstanding -= 1;
    let drained = st.next_claim >= st.total_claims && st.outstanding == 0;
    if drained {
        st.finalize = Some(match st.phase {
            Phase::Tiled(_) => Finalize::Tiled,
            Phase::Reduce(_) => Finalize::Reduce,
            _ => unreachable!("claims exist only in claimable phases"),
        });
        // Replacing the phase drops the run's task handle; together with
        // the workers' (already dropped), the read snapshots become
        // uniquely owned again for recovery.
        st.phase = Phase::Advancing;
    }
    drop(st);
    if drained {
        advance(shared, run);
    } else {
        // Wake scanners that skipped this run while we held its lock.
        notify_workers(shared);
    }
}

/// Computes one strip of a tiled group into pool-backed slabs.
fn run_strip(
    shared: &Shared,
    run: &RunContext,
    task: &TiledTask,
    strip: usize,
    runs: &mut HashMap<u64, WorkerRun>,
    arena_pool: &mut BufferPool,
) -> (Vec<SlabPart>, LocalStats) {
    let prog = &*run.prog;
    let GroupKind::Tiled(tg) = &prog.groups[task.group].kind else {
        panic!("strip work targets a non-tiled group");
    };
    let ws = worker_run_state(runs, arena_pool, run, task.group, tg);
    ws.regs.set_simd(prog.simd);
    let read_refs: Vec<Option<&[f32]>> = task
        .reads
        .iter()
        .map(|r| r.as_ref().map(|a| a.as_slice()))
        .collect();

    // Pool-backed slabs for every written stage this strip covers. Strips
    // are disjoint along dimension 0 and tile stores exactly partition the
    // stage domain, so every element of a strip's slab is written before
    // the run reads it — the zero-fill can be skipped. Exception: a
    // *direct* stage stores only at points its (possibly guarded) cases
    // cover, so unless one case spans the whole domain unconditionally its
    // slab must start zeroed (the zero-for-undefined border convention).
    let mut parts: Vec<SlabPart> = Vec::new();
    for &(k, b) in &task.written {
        if let Some((lo, hi)) = task.strip_rows[k][strip] {
            let len = ((hi - lo + 1) * row_size(&prog.buffers[b.0])) as usize;
            let stage = &tg.stages[k];
            let data = if stage.direct && !stage.covers_domain() {
                shared.pool.acquire_zeroed(len)
            } else {
                shared.pool.acquire(len)
            };
            parts.push(SlabPart {
                buf: b,
                row_lo: lo,
                data,
            });
        }
    }
    let mut local = LocalStats::default();
    {
        let mut slabs: Vec<Slab<'_>> = parts
            .iter_mut()
            .map(|p| {
                let k = task
                    .written
                    .iter()
                    .find(|&&(_, b)| b == p.buf)
                    .map(|&(k, _)| k)
                    .expect("slab for a written stage");
                Slab {
                    stage: k,
                    row_lo: p.row_lo,
                    data: p.data.as_mut_slice(),
                }
            })
            .collect();
        let tiles = &task.tiles_by_strip[strip];
        for (n, &ti) in tiles.iter().enumerate() {
            // Tile-boundary cancellation point: the finest-grained check.
            // A cancelled strip merges what it computed (the run's result
            // is discarded anyway) and reports the tiles it abandoned.
            if run.cancel_reason().is_some() {
                local.cancelled_tiles += (tiles.len() - n) as u64;
                break;
            }
            local.tiles += 1;
            run_tile(
                prog,
                tg,
                &tg.tiles[ti],
                &read_refs,
                &mut slabs,
                &mut ws.arena,
                &mut ws.regs,
                &mut local,
            );
        }
    }
    local.eval = ws.regs.take_counters();
    (parts, local)
}

/// Computes one reduction chunk into a pool-backed, identity-filled
/// partial.
fn run_chunk(shared: &Shared, run: &RunContext, task: &ReduceTask, chunk: usize) -> Vec<f32> {
    let prog = &*run.prog;
    let GroupKind::Reduction(red) = &prog.groups[task.group].kind else {
        panic!("chunk work targets a non-reduction group");
    };
    let read_refs: Vec<Option<&[f32]>> = task
        .reads
        .iter()
        .map(|r| r.as_ref().map(|a| a.as_slice()))
        .collect();
    let views = reduction_views(prog, red, &read_refs);
    let (lo, hi) = task.chunks[chunk];
    // The fill overwrites every element, so no zero-fill is needed.
    let mut part = shared.pool.acquire(task.out_len);
    part.fill(task.identity);
    // Chunk-level cancellation point: a cancelled run's combine step is
    // skipped anyway, so an identity-filled partial is as good as a swept
    // one and costs nothing.
    if run.cancel_reason().is_some() {
        return part;
    }
    let mut dom = red.red_dom.clone();
    *dom.range_mut(0) = (lo, hi);
    sweep_reduction(prog, red, &views, &dom, &mut part);
    part
}

/// Merges one strip's counters into the run statistics at its
/// participation slot.
fn absorb_local(st: &mut RunState, slot: usize, local: &LocalStats, busy: Duration) {
    st.stats.tiles += local.tiles;
    st.stats.cancelled_tiles += local.cancelled_tiles;
    st.stats.chunks += local.chunks;
    st.stats.points_computed += local.points;
    st.stats.uniform_hits += local.eval.uniform_hits;
    st.stats.uniform_misses += local.eval.uniform_misses;
    st.stats.loads.merge(&local.eval.loads);
    st.stats.simd_lanes_avx2 += local.eval.simd_lanes_avx2;
    st.stats.simd_lanes_sse2 += local.eval.simd_lanes_sse2;
    st.stats.simd_lanes_neon += local.eval.simd_lanes_neon;
    st.stats.simd_lanes_scalar += local.eval.simd_lanes_scalar;
    st.stats.worker_tiles[slot] += local.tiles;
    st.stats.worker_busy[slot] += busy;
    st.group_worker[slot].0 += local.tiles;
    st.group_worker[slot].1 += busy;
}

// ---------------------------------------------------------------------------
// The run state machine: setup, sequential groups, finalization, completion.
// ---------------------------------------------------------------------------

/// Advances a run: finalizes a drained group, executes sequential groups
/// inline, sets up the next claimable task, or completes the run. Exactly
/// one worker is ever inside this for a given run (`Phase::Advancing`).
fn advance(shared: &Arc<Shared>, run: &Arc<RunContext>) {
    let res = catch_unwind(AssertUnwindSafe(|| advance_inner(shared, run)));
    if let Err(p) = res {
        // A panic while advancing (sequential group, finalization) fails
        // the run; the state may be mid-transition but is never read again
        // past `complete_run`.
        let already_done = matches!(lock(&run.state).phase, Phase::Complete);
        if !already_done {
            complete_run(
                shared,
                run,
                Err(VmError::Internal(format!(
                    "worker panicked: {}",
                    panic_text(p)
                ))),
            );
        }
    }
}

fn advance_inner(shared: &Arc<Shared>, run: &Arc<RunContext>) {
    let prog = Arc::clone(&run.prog);
    let mut st = lock(&run.state);
    debug_assert!(matches!(st.phase, Phase::Advancing));
    if !st.started {
        st.started = true;
        st.stats.sched_wait = run.submitted.elapsed();
    }

    // Finalize the group whose last claim just drained, if any.
    match st.finalize.take() {
        Some(Finalize::Tiled) => {
            if st.failed.is_none() {
                recover_reads(&mut st);
            }
            end_group(shared, run, &mut st);
        }
        Some(Finalize::Reduce) => {
            if st.failed.is_none() {
                let GroupKind::Reduction(red) = &prog.groups[st.group].kind else {
                    unreachable!("reduce finalize on a non-reduction group");
                };
                if st.red_parts.iter().any(Option::is_none) {
                    st.failed = Some(VmError::Internal("reduction chunk lost".into()));
                } else {
                    // Combine in ascending chunk order — the order the
                    // legacy executor joins its threads — for bit-identical
                    // float results.
                    let mut out_vec = std::mem::take(&mut st.red_out);
                    let parts: Vec<Vec<f32>> = st.red_parts.drain(..).flatten().collect();
                    for part in parts {
                        for (o, p) in out_vec.iter_mut().zip(&part) {
                            *o = red.op.combine(*o as f64, *p as f64) as f32;
                        }
                        shared.pool.release(part);
                    }
                    fix_untouched_identities(red.op, red.op.identity() as f32, &mut out_vec);
                    let out = red.out.0;
                    st.fulls[out] = out_vec;
                    recover_reads(&mut st);
                }
            }
            end_group(shared, run, &mut st);
        }
        None => {}
    }
    if let Some(err) = st.failed.take() {
        drop(st);
        complete_run(shared, run, Err(err));
        return;
    }

    // Walk groups until the run blocks on claimable work or completes.
    // Each iteration is a cancellation point (group-advance granularity):
    // a cancel or deadline signal stops the walk before the next group's
    // buffers are even acquired.
    loop {
        if let Some(reason) = run.cancel_reason() {
            drop(st);
            complete_run(shared, run, Err(VmError::Cancelled { reason }));
            return;
        }
        if st.group == prog.groups.len() {
            let outputs = prog
                .outputs
                .iter()
                .map(|(_, b)| {
                    Buffer::from_vec(decl_rect(&prog.buffers[b.0]), st.fulls[b.0].clone())
                })
                .collect();
            drop(st);
            complete_run(shared, run, Ok(outputs));
            return;
        }
        let gi = st.group;
        acquire_for_group(shared, run, &mut st, gi);
        match &prog.groups[gi].kind {
            GroupKind::Sequential(seq) => {
                begin_group(run, &mut st);
                // Execute outside the lock: polls see `Advancing` and skip.
                let mut fulls = std::mem::take(&mut st.fulls);
                drop(st);
                let r = execute_seq(&prog, seq, &mut fulls);
                st = lock(&run.state);
                st.fulls = fulls;
                end_group(shared, run, &mut st);
                if let Err(e) = r {
                    drop(st);
                    complete_run(shared, run, Err(e));
                    return;
                }
            }
            GroupKind::Reduction(red) => {
                let (rlo, rhi) = red.red_dom.range(0);
                let total = (rhi - rlo + 1).max(0);
                // Same chunking rule as the legacy executor (based on the
                // *requested* thread count, not pool size), so partial
                // boundaries — and therefore float combine order — match
                // `run_program_static` for the same thread count.
                let nth = run.req_threads.min(total.max(1) as usize).max(1);
                let chunk = total.div_euclid(nth as i64) + 1;
                let mut chunks = Vec::with_capacity(nth);
                if nth > 1 {
                    for t in 0..nth {
                        let lo = rlo + t as i64 * chunk;
                        let hi = (lo + chunk - 1).min(rhi);
                        if lo <= hi {
                            chunks.push((lo, hi));
                        }
                    }
                }
                if chunks.is_empty() {
                    // Single sweep straight into the output; no combine
                    // step (and no `0.0 + -0.0` rounding artifacts from
                    // merging partials).
                    begin_group(run, &mut st);
                    let mut fulls = std::mem::take(&mut st.fulls);
                    drop(st);
                    let r = execute_reduction(&prog, red, &mut fulls, 1);
                    st = lock(&run.state);
                    st.fulls = fulls;
                    end_group(shared, run, &mut st);
                    if let Err(e) = r {
                        drop(st);
                        complete_run(shared, run, Err(e));
                        return;
                    }
                } else {
                    begin_group(run, &mut st);
                    let identity = red.op.identity() as f32;
                    let mut out_vec = std::mem::take(&mut st.fulls[red.out.0]);
                    out_vec.fill(identity);
                    st.red_out = out_vec;
                    st.red_parts = {
                        let mut v: Vec<Option<Vec<f32>>> = Vec::new();
                        v.resize_with(chunks.len(), || None);
                        v
                    };
                    let reads = snapshot_reads(&mut st, &[red.out.0]);
                    let out_len = st.red_out.len();
                    st.next_claim = 0;
                    st.total_claims = chunks.len();
                    st.outstanding = 0;
                    st.phase = Phase::Reduce(Arc::new(ReduceTask {
                        group: gi,
                        reads,
                        chunks,
                        out_len,
                        identity,
                    }));
                    drop(st);
                    notify_workers(shared);
                    return;
                }
            }
            GroupKind::Tiled(tg) => {
                let written = match written_stages(tg) {
                    Ok(w) => w,
                    Err(e) => {
                        drop(st);
                        complete_run(shared, run, Err(e));
                        return;
                    }
                };
                begin_group(run, &mut st);
                let (strip_rows, tiles_by_strip) = strip_layout(tg);
                let written_bufs: Vec<usize> = written.iter().map(|&(_, b)| b.0).collect();
                let reads = snapshot_reads(&mut st, &written_bufs);
                st.next_claim = 0;
                st.total_claims = tg.nstrips;
                st.outstanding = 0;
                st.phase = Phase::Tiled(Arc::new(TiledTask {
                    group: gi,
                    reads,
                    written,
                    strip_rows,
                    tiles_by_strip,
                }));
                drop(st);
                notify_workers(shared);
                return;
            }
        }
    }
}

/// Materializes the full buffers whose narrowed lifetime starts at group
/// `gi` (the group walk visits each group index exactly once). Under the
/// run-scoped plan this is a no-op.
fn acquire_for_group(shared: &Shared, run: &RunContext, st: &mut RunState, gi: usize) {
    for (i, b) in run.prog.buffers.iter().enumerate() {
        if b.kind == BufKind::Full && run.prog.storage.acquire_group[i] == Some(gi) {
            debug_assert!(st.fulls[i].is_empty());
            st.fulls[i] = if run.overwritten[i] {
                shared.pool.acquire(b.len())
            } else {
                shared.pool.acquire_zeroed(b.len())
            };
            let bytes = (b.len() * 4) as u64;
            st.cur_full_bytes += bytes;
            st.stats.peak_full_bytes = st.stats.peak_full_bytes.max(st.cur_full_bytes);
            let cur = shared.full_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            shared.full_peak.fetch_max(cur, Ordering::Relaxed);
        }
    }
}

/// Moves every full buffer the current task does not write behind an
/// `Arc` snapshot workers can read without the run lock; the run keeps a
/// second handle in `reads_keep` for recovery at finalization.
fn snapshot_reads(st: &mut RunState, written: &[usize]) -> Vec<Option<Arc<Vec<f32>>>> {
    let mut reads: Vec<Option<Arc<Vec<f32>>>> = vec![None; st.fulls.len()];
    for (i, v) in st.fulls.iter_mut().enumerate() {
        if !written.contains(&i) {
            let arc = Arc::new(std::mem::take(v));
            st.reads_keep[i] = Some(Arc::clone(&arc));
            reads[i] = Some(arc);
        }
    }
    reads
}

/// Recovers the read snapshots back into `fulls`. All task handles are
/// dropped by the time a group finalizes, so each `Arc` is uniquely owned
/// again; a still-shared buffer fails the run.
fn recover_reads(st: &mut RunState) {
    for i in 0..st.reads_keep.len() {
        if let Some(a) = st.reads_keep[i].take() {
            match Arc::try_unwrap(a) {
                Ok(v) => st.fulls[i] = v,
                Err(_) => {
                    st.failed = Some(VmError::Internal("buffer still shared after group".into()));
                    return;
                }
            }
        }
    }
}

/// Opens the current group: wall-clock start and (when tracing) its span.
fn begin_group(run: &RunContext, st: &mut RunState) {
    st.group_start = Instant::now();
    st.group_span = run.diag.enabled().then(|| run.diag.begin());
    for gw in st.group_worker.iter_mut() {
        *gw = (0, Duration::ZERO);
    }
}

/// Closes the current group: records its wall time, emits its span and
/// per-worker events (all stamped with the run id), releases full buffers
/// whose last consumer just ran, and moves to the next group.
fn end_group(shared: &Shared, run: &RunContext, st: &mut RunState) {
    let prog = &run.prog;
    let group = &prog.groups[st.group];
    if run.group_stats {
        st.stats
            .group_times
            .push((group.name.clone(), st.group_start.elapsed()));
    }
    if run.diag.enabled() {
        for (slot, &(tiles, busy)) in st.group_worker.iter().enumerate() {
            if tiles == 0 && busy.is_zero() {
                continue;
            }
            run.diag.event(
                "worker",
                vec![
                    ("run_id", Value::UInt(run.run_id)),
                    ("group", Value::Str(group.name.clone())),
                    ("worker", Value::UInt(slot as u64)),
                    ("tiles", Value::UInt(tiles)),
                    ("busy_us", Value::UInt(busy.as_micros() as u64)),
                ],
            );
        }
        if let Some(span) = st.group_span.take() {
            run.diag.end(
                span,
                "group",
                vec![
                    ("run_id", Value::UInt(run.run_id)),
                    ("name", Value::Str(group.name.clone())),
                    (
                        "kind",
                        Value::Str(
                            match &group.kind {
                                GroupKind::Tiled(_) => "tiled",
                                GroupKind::Reduction(_) => "reduction",
                                GroupKind::Sequential(_) => "sequential",
                            }
                            .to_string(),
                        ),
                    ),
                ],
            );
        }
    }
    // Liveness-driven early release: buffers whose last consumer was this
    // group go back to the pool now instead of at run completion. On a
    // failed run the snapshot entries are empty and skipped (the Arcs in
    // `reads_keep` are dropped unpooled at completion, as before).
    let gi = st.group;
    for (i, b) in prog.buffers.iter().enumerate() {
        if b.kind == BufKind::Full && prog.storage.release_group[i] == Some(gi) {
            let v = std::mem::take(&mut st.fulls[i]);
            if v.is_empty() {
                continue;
            }
            let bytes = (b.len() * 4) as u64;
            st.cur_full_bytes = st.cur_full_bytes.saturating_sub(bytes);
            shared.full_bytes.fetch_sub(bytes, Ordering::Relaxed);
            st.stats.early_releases += 1;
            shared.pool.release(v);
        }
    }
    st.group += 1;
}

/// Publishes a run's result, releases its buffers, flushes diagnostics,
/// and removes it from the scheduler (freeing an admission slot).
fn complete_run(shared: &Arc<Shared>, run: &Arc<RunContext>, result: Result<Vec<Buffer>, VmError>) {
    let mut st = lock(&run.state);
    st.phase = Phase::Complete;
    for v in st.fulls.drain(..) {
        shared.pool.release(v);
    }
    shared
        .full_bytes
        .fetch_sub(st.cur_full_bytes, Ordering::Relaxed);
    st.cur_full_bytes = 0;
    // A cancelled/failed run skips `recover_reads`, so its snapshot Arcs
    // still hold pool-sized buffers here. All task handles are gone by
    // completion, so each unwraps cleanly and recycles — cancellation
    // releases every pooled buffer immediately, not just the `fulls`.
    for slot in st.reads_keep.iter_mut() {
        if let Some(a) = slot.take() {
            if let Ok(v) = Arc::try_unwrap(a) {
                shared.pool.release(v);
            }
        }
    }
    st.reads_keep.clear();
    shared.pool.release(std::mem::take(&mut st.red_out));
    for part in st.red_parts.drain(..).flatten() {
        shared.pool.release(part);
    }
    if let Err(VmError::Cancelled { reason }) = &result {
        shared.sched_cancels.fetch_add(1, Ordering::Relaxed);
        if *reason == CancelReason::Deadline {
            shared.sched_deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
    if run.diag.enabled() {
        // Pool counters are engine-global: the delta since the previous
        // flush, which under concurrency includes overlapping (and
        // untraced) runs' pool traffic. Totals stay exact; attribution is
        // per completion. Per-run counters (tiles, evaluator) are exact.
        let now = shared.pool.stats();
        let mut fl = lock(&shared.flushed);
        run.diag
            .count(Counter::PoolAcquire, now.acquires - fl.pool.acquires);
        run.diag
            .count(Counter::PoolReuse, now.reuses - fl.pool.reuses);
        run.diag
            .count(Counter::PoolDrop, now.dropped - fl.pool.dropped);
        fl.pool = now;
        // The engine-global full-buffer peak is monotone; flushing the
        // delta keeps the summed counter equal to the final peak.
        let peak_now = shared.full_peak.load(Ordering::Relaxed);
        run.diag.count(
            Counter::StoragePeakBytes,
            peak_now.saturating_sub(fl.peak_full_bytes),
        );
        fl.peak_full_bytes = fl.peak_full_bytes.max(peak_now);
        // Scheduler counters are engine-global like the pool's: flushed as
        // the delta since the previous completion's flush.
        let pre = shared.sched_preempts.load(Ordering::Relaxed);
        run.diag
            .count(Counter::SchedPreempt, pre - fl.sched_preempts);
        fl.sched_preempts = pre;
        let shed = shared.sched_sheds.load(Ordering::Relaxed);
        run.diag.count(Counter::SchedShed, shed - fl.sched_sheds);
        fl.sched_sheds = shed;
        let canc = shared.sched_cancels.load(Ordering::Relaxed);
        run.diag
            .count(Counter::SchedCancel, canc - fl.sched_cancels);
        fl.sched_cancels = canc;
        let dlm = shared.sched_deadline_misses.load(Ordering::Relaxed);
        run.diag
            .count(Counter::SchedDeadlineMiss, dlm - fl.sched_deadline_misses);
        fl.sched_deadline_misses = dlm;
        drop(fl);
        run.diag
            .count(Counter::StorageEarlyRelease, st.stats.early_releases);
        run.diag.count(Counter::TileClaim, st.stats.tiles);
        run.diag.count(Counter::UniformHit, st.stats.uniform_hits);
        run.diag
            .count(Counter::UniformMiss, st.stats.uniform_misses);
        run.diag
            .count(Counter::LoadBroadcast, st.stats.loads.broadcast as u64);
        run.diag
            .count(Counter::LoadContiguous, st.stats.loads.contiguous as u64);
        run.diag
            .count(Counter::LoadStrided, st.stats.loads.strided as u64);
        run.diag
            .count(Counter::LoadGather, st.stats.loads.gather as u64);
        run.diag
            .count(Counter::SimdLanesAvx2, st.stats.simd_lanes_avx2);
        run.diag
            .count(Counter::SimdLanesSse2, st.stats.simd_lanes_sse2);
        run.diag
            .count(Counter::SimdLanesNeon, st.stats.simd_lanes_neon);
        run.diag
            .count(Counter::SimdLanesScalar, st.stats.simd_lanes_scalar);
        if let Some(span) = st.run_span.take() {
            let mut args = vec![
                ("run_id", Value::UInt(run.run_id)),
                ("program", Value::Str(run.prog.name.clone())),
                ("nthreads", Value::UInt(run.req_threads as u64)),
                ("tiles", Value::UInt(st.stats.tiles)),
                ("points", Value::UInt(st.stats.points_computed)),
                ("priority", Value::Str(run.priority.label().to_string())),
                (
                    "sched_wait_us",
                    Value::UInt(st.stats.sched_wait.as_micros() as u64),
                ),
            ];
            if let Some(dl) = run.deadline {
                // Relative to submission: the latency budget the caller
                // gave the run.
                args.push((
                    "deadline_us",
                    Value::UInt(dl.saturating_duration_since(run.submitted).as_micros() as u64),
                ));
            }
            match &result {
                Ok(_) => args.push(("status", Value::Str("ok".to_string()))),
                Err(VmError::Cancelled { reason }) => {
                    args.push(("status", Value::Str("cancelled".to_string())));
                    args.push(("cancel_reason", Value::Str(reason.label().to_string())));
                    args.push(("cancelled_tiles", Value::UInt(st.stats.cancelled_tiles)));
                }
                Err(_) => args.push(("status", Value::Str("failed".to_string()))),
            }
            run.diag.end(span, "run", args);
        }
    }
    let stats = std::mem::take(&mut st.stats);
    drop(st);
    *lock(&run.done) = Some((result, stats));
    run.done_cv.notify_all();

    let mut sched = lock(&shared.sched);
    sched.runs.retain(|r| r.run_id != run.run_id);
    sched.inflight -= 1;
    shared.admit_cv.notify_one();
    shared.work_cv.notify_all();
}
