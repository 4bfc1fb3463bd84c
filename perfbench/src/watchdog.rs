//! The stall watchdog: cancels a run that outlives a fixed limit and
//! reports it, so a lost wakeup shows up as a failed operation instead of
//! hanging the benchmark.
//!
//! Requests carry no engine `deadline` on purpose: a deadline bounds how
//! long workers sleep and would hide exactly the stalls this catches.

use polymage_vm::{CancelToken, RunHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often the watchdog looks for overdue runs.
const TICK: Duration = Duration::from_millis(5);

struct Watch {
    run_id: u64,
    token: CancelToken,
    limit: Instant,
    fired: bool,
}

/// Watches in-flight runs from outside the engine.
#[derive(Default)]
pub struct Watchdog {
    watches: Mutex<Vec<Watch>>,
    done: AtomicBool,
}

impl Watchdog {
    /// Starts watching a submitted run: it is cancelled if it has not been
    /// [released](Watchdog::release) within `limit`.
    pub fn watch(&self, handle: &RunHandle, limit: Duration) {
        self.lock().push(Watch {
            run_id: handle.run_id(),
            token: handle.cancel_token(),
            limit: Instant::now() + limit,
            fired: false,
        });
    }

    /// Stops watching a run once its outcome is known; returns whether the
    /// watchdog had cancelled it (a stall).
    pub fn release(&self, run_id: u64) -> bool {
        let mut watches = self.lock();
        match watches.iter().position(|w| w.run_id == run_id) {
            Some(i) => watches.swap_remove(i).fired,
            None => false,
        }
    }

    /// Cancels overdue runs until [`Watchdog::stop`] is called.
    pub fn patrol(&self) {
        while !self.done.load(Ordering::Acquire) {
            std::thread::sleep(TICK);
            let now = Instant::now();
            for w in self.lock().iter_mut() {
                if !w.fired && now >= w.limit {
                    w.fired = true;
                    w.token.cancel();
                }
            }
        }
    }

    /// Ends [`Watchdog::patrol`] within one tick.
    pub fn stop(&self) {
        self.done.store(true, Ordering::Release);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Watch>> {
        self.watches
            .lock()
            .expect("watchdog lock poisoned by a panicking client")
    }
}
