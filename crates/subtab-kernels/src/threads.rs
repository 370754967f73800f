//! The one thread policy every parallel stage of the workspace shares.
//!
//! [`resolve_threads`] turns a `threads` knob into a worker count (`0` = all
//! available cores, never more workers than work units), and
//! [`map_indexed`] fans independent jobs out across scoped workers and
//! returns their results in index order. Workers hand their results back
//! through their join handles, so no lock guards a result slot and a
//! panicking job reaches the caller as that job's own panic.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a thread-count knob: `0` means all available cores, and the
/// result is clamped to `1..=units`, because more workers than independent
/// work units would only idle.
pub fn resolve_threads(configured: usize, units: usize) -> usize {
    let threads = match configured {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    threads.min(units).max(1)
}

/// Runs `f(i)` for every `i` in `0..n` and returns the results in index
/// order.
///
/// `threads` is resolved by [`resolve_threads`] against `n`. One worker runs
/// the jobs in order on the caller's thread; several pull indices from a
/// shared counter, so uneven jobs still balance. The result is the same at
/// every thread count whenever each `f(i)` depends only on `i`. A panic in
/// any job is re-raised on the caller's thread with its original payload.
pub fn map_indexed<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = resolve_threads(threads, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_every_core_and_the_count_never_exceeds_the_units() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(resolve_threads(0, usize::MAX), cores);
        assert_eq!(resolve_threads(0, 1), 1);
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        // No units still resolves to one (idle) worker.
        assert_eq!(resolve_threads(4, 0), 1);
        assert_eq!(resolve_threads(0, 0), 1);
    }

    #[test]
    fn results_come_back_in_index_order_at_every_thread_count() {
        let want: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for threads in [0, 1, 2, 3, 64] {
            let got = map_indexed(threads, want.len(), |i| {
                // Early indices finish last, so completion order differs
                // from index order whenever several workers run.
                if i < 3 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                (i as u64) * (i as u64) + 1
            });
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn zero_units_yield_an_empty_result() {
        for threads in [0, 1, 4] {
            let got: Vec<usize> = map_indexed(threads, 0, |i| i);
            assert!(got.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_reaches_the_caller_as_its_own_panic() {
        map_indexed(3, 10, |i| {
            if i == 5 {
                panic!("job {i} failed");
            }
            i
        });
    }
}
