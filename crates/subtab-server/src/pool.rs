//! A dual-lane worker pool with heavy-job admission control.
//!
//! Jobs arrive on one of two lanes. The **interactive** lane (selects,
//! highlight probes) is always preferred: an idle worker drains it first.
//! The **heavy** lane (rule mining) is admission-controlled: at most
//! `heavy_slots` heavy jobs run at once, so a burst of
//! `mine_rules_for_targets` calls can never occupy every worker and starve
//! interactive selects — with `workers > heavy_slots` there is always at
//! least one worker that heavy jobs cannot claim.
//!
//! A job that panics is contained at the worker boundary: the worker
//! releases the job's heavy slot and keeps serving both lanes.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Which lane a job is submitted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Latency-sensitive work; always drained first.
    Interactive,
    /// Throughput work; at most `heavy_slots` run concurrently.
    Heavy,
}

struct State {
    interactive: VecDeque<Job>,
    heavy: VecDeque<Job>,
    heavy_running: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on submit, on heavy-slot release and on shutdown.
    work: Condvar,
    heavy_slots: usize,
}

impl Shared {
    /// Locks the queues. Jobs run outside the lock and every critical
    /// section is a queue push or pop or a counter step, so a poisoned lock
    /// still guards consistent state and is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker pool. Dropping it drains both queues (every submitted job
/// still runs) and joins the workers.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool of `workers` threads admitting at most `heavy_slots`
    /// concurrent heavy jobs. Both values are clamped to at least 1; when
    /// `heavy_slots >= workers` it is clamped to `workers - 1` (so one
    /// worker always remains for interactive work), except for a
    /// single-worker pool where the lone worker serves both lanes.
    pub fn new(workers: usize, heavy_slots: usize) -> Self {
        let workers = workers.max(1);
        let heavy_slots = if workers == 1 {
            1
        } else {
            heavy_slots.clamp(1, workers - 1)
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                interactive: VecDeque::new(),
                heavy: VecDeque::new(),
                heavy_running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            heavy_slots,
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Maximum number of concurrently running heavy jobs.
    pub fn heavy_slots(&self) -> usize {
        self.shared.heavy_slots
    }

    /// Enqueues `job` on `lane`. Jobs submitted after the pool started
    /// dropping are still executed by the drain.
    pub fn submit(&self, lane: Lane, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.lock();
        match lane {
            Lane::Interactive => state.interactive.push_back(Box::new(job)),
            Lane::Heavy => state.heavy.push_back(Box::new(job)),
        }
        drop(state);
        self.shared.work.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        // Interactive work first; heavy work only while a slot is free.
        if let Some(job) = state.interactive.pop_front() {
            drop(state);
            run(job);
            state = shared.lock();
            continue;
        }
        if state.heavy_running < shared.heavy_slots {
            if let Some(job) = state.heavy.pop_front() {
                state.heavy_running += 1;
                drop(state);
                run(job);
                state = shared.lock();
                state.heavy_running -= 1;
                // A freed slot may unblock workers parked on a full lane.
                shared.work.notify_all();
                continue;
            }
        }
        if state.shutdown && state.interactive.is_empty() && state.heavy.is_empty() {
            return;
        }
        state = shared
            .work
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Runs one job, containing a panic so the worker survives it. The job's
/// captures (a reply channel, say) are dropped during the unwind, so a
/// caller waiting on one sees it disconnect.
fn run(job: Job) {
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_report_back() {
        let pool = Pool::new(2, 1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(Lane::Interactive, move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_jobs_cannot_starve_interactive_work() {
        // 2 workers, 1 heavy slot: even with heavy jobs queued and one
        // running forever, an interactive job must still get a worker.
        let pool = Pool::new(2, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..4 {
            let release_rx = Arc::clone(&release_rx);
            pool.submit(Lane::Heavy, move || {
                // Blocks until the test releases it.
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        let (tx, rx) = mpsc::channel();
        pool.submit(Lane::Interactive, move || tx.send(42).unwrap());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(42),
            "interactive job starved by queued heavy jobs"
        );
        for _ in 0..4 {
            release_tx.send(()).unwrap();
        }
    }

    #[test]
    fn heavy_concurrency_is_capped_by_the_slot_count() {
        let pool = Pool::new(4, 1);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..6 {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let tx = tx.clone();
            pool.submit(Lane::Heavy, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..6 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "more heavy jobs ran concurrently than the slot count allows"
        );
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = Pool::new(2, 1);
            for _ in 0..20 {
                let done = Arc::clone(&done);
                pool.submit(Lane::Interactive, move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            for _ in 0..5 {
                let done = Arc::clone(&done);
                pool.submit(Lane::Heavy, move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // Drop joins the workers after the drain.
        assert_eq!(done.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn a_panicking_job_releases_its_heavy_slot() {
        let pool = Pool::new(2, 1);
        pool.submit(Lane::Heavy, || panic!("heavy job panics"));
        let (tx, rx) = mpsc::channel();
        let heavy_tx = tx.clone();
        pool.submit(Lane::Heavy, move || heavy_tx.send("heavy").unwrap());
        let heavy = rx.recv_timeout(Duration::from_secs(10));
        pool.submit(Lane::Interactive, || panic!("interactive job panics"));
        pool.submit(Lane::Interactive, move || tx.send("interactive").unwrap());
        let interactive = rx.recv_timeout(Duration::from_secs(10));
        if heavy.is_err() || interactive.is_err() {
            // Dropping a wedged pool waits for its blocked lane forever.
            std::mem::forget(pool);
        }
        assert_eq!(heavy, Ok("heavy"), "a panicking heavy job kept its slot");
        assert_eq!(
            interactive,
            Ok("interactive"),
            "panicking jobs left no worker for interactive work"
        );
    }

    #[test]
    fn degenerate_configurations_are_clamped() {
        let pool = Pool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.heavy_slots(), 1);
        let pool = Pool::new(4, 99);
        assert_eq!(pool.heavy_slots(), 3, "one worker stays interactive-only");
    }
}
