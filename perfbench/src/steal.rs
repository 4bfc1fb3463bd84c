//! Host CPU steal, sampled through a timed phase, and the gate that keeps
//! stolen time out of the time metrics.
//!
//! On a shared virtual machine the hypervisor takes CPU time from the
//! guest when the host is busy, and every wall-clock time of the guest
//! stretches with it, by up to 1.7× at 30% steal. The gate splits a timed
//! phase into [`SAMPLE`]-long intervals and reads the host's steal share
//! over each from `/proc/stat`. The phase runs until it has `target` of
//! clean intervals (steal at most `max_steal`) or until `cap`, and the
//! time metrics are taken only over the intervals it accepts: the clean
//! ones, or, when the host stayed busy to the cap, the least stolen ones
//! that add up to `target`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Length of one sampling interval. `/proc/stat` counts in 10 ms ticks,
/// so two CPUs give 100 ticks per interval and steal reads in steps of 1%.
pub const SAMPLE: Duration = Duration::from_millis(500);

/// `(steal, total)` ticks of all CPUs from `/proc/stat`, if readable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Steal share between two readings (0 when unknown).
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// One sampling interval and the host's steal share over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start of the interval.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
    /// Share of all CPUs' time stolen during it.
    pub steal: f64,
}

impl Interval {
    fn len(&self) -> Duration {
        self.end - self.start
    }
}

/// Samples steal through a timed phase and decides when the phase ends.
pub struct StealGate {
    target: Duration,
    cap: Duration,
    max_steal: f64,
    stop: AtomicBool,
    intervals: Mutex<Vec<Interval>>,
}

impl StealGate {
    /// A gate that ends the phase after `target` of intervals with steal at
    /// most `max_steal`, or at `cap`, whichever comes first.
    pub fn new(target: Duration, cap: Duration, max_steal: f64) -> StealGate {
        StealGate {
            target,
            cap: cap.max(target),
            max_steal,
            stop: AtomicBool::new(false),
            intervals: Mutex::new(Vec::new()),
        }
    }

    /// Whether the phase should end (the clients then drain what is in
    /// flight).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Samples from `start` until the phase has enough clean time or
    /// reaches its cap, then stops it. Runs on a thread of its own.
    pub fn sample(&self, start: Instant) {
        let mut ticks = cpu_ticks();
        let mut from = start;
        let mut clean = Duration::ZERO;
        loop {
            std::thread::sleep((from + SAMPLE).saturating_duration_since(Instant::now()));
            let now = Instant::now();
            let after = cpu_ticks();
            let i = Interval {
                start: from,
                end: now,
                steal: steal_share(ticks, after),
            };
            if i.steal <= self.max_steal {
                clean += i.len();
            }
            self.lock().push(i);
            (ticks, from) = (after, now);
            if clean >= self.target || now - start >= self.cap {
                self.stop.store(true, Ordering::Release);
                return;
            }
        }
    }

    /// The intervals sampled so far, in order.
    pub fn intervals(&self) -> Vec<Interval> {
        self.lock().clone()
    }

    /// The intervals the time metrics are taken over.
    pub fn accepted(&self) -> Accepted {
        accept(&self.intervals(), self.target, self.max_steal)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Interval>> {
        self.intervals.lock().expect("steal sampler panicked")
    }
}

/// Chooses the intervals to measure over: every clean one if they add up
/// to `target`, otherwise the least stolen ones until they do.
pub fn accept(intervals: &[Interval], target: Duration, max_steal: f64) -> Accepted {
    let clean: Vec<Interval> = intervals
        .iter()
        .copied()
        .filter(|i| i.steal <= max_steal)
        .collect();
    let chosen = if clean.iter().map(Interval::len).sum::<Duration>() >= target {
        clean
    } else {
        let mut by_steal = intervals.to_vec();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let mut total = Duration::ZERO;
        let mut chosen = Vec::new();
        for i in by_steal {
            if total >= target {
                break;
            }
            total += i.len();
            chosen.push(i);
        }
        chosen.sort_by_key(|i| i.start);
        chosen
    };
    Accepted::new(&chosen, intervals)
}

/// Time-weighted mean steal share of some intervals (0 when empty).
fn mean_steal(intervals: &[Interval]) -> f64 {
    let total: f64 = intervals.iter().map(|i| i.len().as_secs_f64()).sum();
    let weighted: f64 = intervals
        .iter()
        .map(|i| i.steal * i.len().as_secs_f64())
        .sum();
    if total > 0.0 {
        weighted / total
    } else {
        0.0
    }
}

/// The accepted intervals, merged into maximal contiguous runs.
#[derive(Debug, Clone)]
pub struct Accepted {
    runs: Vec<(Instant, Instant)>,
    steal: f64,
    phase: Duration,
    phase_steal: f64,
}

impl Accepted {
    fn new(chosen: &[Interval], all: &[Interval]) -> Accepted {
        let mut runs: Vec<(Instant, Instant)> = Vec::new();
        for i in chosen {
            match runs.last_mut() {
                Some(last) if last.1 == i.start => last.1 = i.end,
                _ => runs.push((i.start, i.end)),
            }
        }
        Accepted {
            runs,
            steal: mean_steal(chosen),
            phase: all.iter().map(Interval::len).sum(),
            phase_steal: mean_steal(all),
        }
    }

    /// Total accepted time.
    pub fn total(&self) -> Duration {
        self.runs.iter().map(|(a, b)| *b - *a).sum()
    }

    /// Mean steal share over the accepted time.
    pub fn steal(&self) -> f64 {
        self.steal
    }

    /// Length of the sampled phase, accepted or not.
    pub fn phase(&self) -> Duration {
        self.phase
    }

    /// Mean steal share over the whole sampled phase.
    pub fn phase_steal(&self) -> f64 {
        self.phase_steal
    }

    /// Whether `[start, end]` lies wholly inside accepted time.
    pub fn covers(&self, start: Instant, end: Instant) -> bool {
        self.runs.iter().any(|&(a, b)| a <= start && end <= b)
    }

    /// How much of `[start, end]` lies inside accepted time.
    pub fn overlap(&self, start: Instant, end: Instant) -> Duration {
        self.runs
            .iter()
            .map(|&(a, b)| b.min(end).saturating_duration_since(a.max(start)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(steals: &[f64]) -> (Instant, Vec<Interval>) {
        let t0 = Instant::now();
        let at = |k: usize| t0 + SAMPLE * k as u32;
        let intervals = steals
            .iter()
            .enumerate()
            .map(|(k, &steal)| Interval {
                start: at(k),
                end: at(k + 1),
                steal,
            })
            .collect();
        (t0, intervals)
    }

    #[test]
    fn clean_intervals_are_accepted_and_merged() {
        let (t0, iv) = phase(&[0.0, 0.01, 0.3, 0.0, 0.02]);
        let a = accept(&iv, SAMPLE * 3, 0.05);
        assert_eq!(a.total(), SAMPLE * 4);
        assert_eq!(a.phase(), SAMPLE * 5);
        assert!((a.steal() - 0.0075).abs() < 1e-12);
        assert!((a.phase_steal() - 0.066).abs() < 1e-12);
        let ms = |m: u64| t0 + Duration::from_millis(m);
        // Inside the first run of two clean intervals.
        assert!(a.covers(ms(100), ms(900)));
        // Reaches into the stolen third interval.
        assert!(!a.covers(ms(900), ms(1100)));
        assert_eq!(a.overlap(ms(900), ms(1100)), Duration::from_millis(100));
        assert_eq!(a.overlap(ms(1200), ms(1400)), Duration::ZERO);
    }

    #[test]
    fn a_busy_host_falls_back_to_the_least_stolen_intervals() {
        let (t0, iv) = phase(&[0.3, 0.1, 0.2, 0.4, 0.15]);
        let a = accept(&iv, SAMPLE * 2, 0.05);
        assert_eq!(a.total(), SAMPLE * 2);
        assert!((a.steal() - 0.125).abs() < 1e-12);
        let ms = |m: u64| t0 + Duration::from_millis(m);
        assert!(a.covers(ms(600), ms(900)));
        assert!(a.covers(ms(2100), ms(2400)));
        assert!(!a.covers(ms(1100), ms(1200)));
    }

    #[test]
    fn the_gate_stops_at_its_target_when_nothing_is_stolen() {
        let gate = StealGate::new(SAMPLE * 2, SAMPLE * 10, 1.0);
        let start = Instant::now();
        gate.sample(start);
        assert!(gate.stopped());
        assert_eq!(gate.intervals().len(), 2);
        assert!(gate.accepted().total() >= SAMPLE * 2);
    }
}
