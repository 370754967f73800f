//! A keyed LRU result cache with single-flight computation and hit/miss
//! accounting.
//!
//! Keys are canonical request encodings (see
//! [`Query::selection_key`](subtab_data::Query::selection_key)), values are
//! `Arc`-shared results, so a cache hit is a pointer bump. Concurrent misses
//! on the *same* key are collapsed into one computation: the first caller
//! computes while every racer parks on a condvar and receives the winner's
//! value — two sessions issuing the same query never duplicate work or race
//! to insert duplicate entries.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Point-in-time counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to compute (including single-flight winners).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when the cache has seen no requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    /// Recency stamp from the cache's logical clock; the smallest stamp is
    /// the least recently used entry.
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<String, Entry<V>>,
    /// Keys currently being computed by some thread (single-flight).
    inflight: HashSet<String>,
    /// Logical clock advanced on every touch.
    tick: u64,
}

/// An LRU map from canonical request keys to shared results.
///
/// Capacity `0` disables caching entirely: every request computes, nothing
/// is stored and concurrent duplicates are *not* collapsed (useful for
/// benchmarking the raw execution path).
pub struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    /// Signalled when an in-flight computation finishes (either outcome).
    changed: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                inflight: HashSet::new(),
                tick: 0,
            }),
            changed: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, or computes it with `f`.
    ///
    /// The boolean is `true` on a cache hit. Exactly one caller computes a
    /// missing key at a time; racers block until the computation finishes
    /// and then read the inserted value. A failed or panicking computation
    /// inserts nothing — one parked racer retries (and may succeed, e.g.
    /// after a transient failure), the error or panic propagates to the
    /// caller that hit it.
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return f().map(|v| (v, false));
        }
        {
            let mut guard = self.lock();
            loop {
                if let Some(entry) = guard.map.get(key) {
                    let value = entry.value.clone();
                    guard.tick += 1;
                    let tick = guard.tick;
                    guard
                        .map
                        .get_mut(key)
                        .expect("entry present just above")
                        .last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((value, true));
                }
                if guard.inflight.contains(key) {
                    guard = self
                        .changed
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                guard.inflight.insert(key.to_string());
                self.misses.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        let inflight = Inflight { cache: self, key };
        // Compute outside the lock — this is the expensive part the
        // single-flight discipline protects.
        let value = f()?;
        let mut guard = self.lock();
        if guard.map.len() >= self.capacity && !guard.map.contains_key(key) {
            // Evict the least recently used entry. The scan is O(entries),
            // which is dwarfed by the miss computation that triggered it at
            // any realistic capacity.
            if let Some(lru_key) = guard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                guard.map.remove(&lru_key);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        guard.tick += 1;
        let tick = guard.tick;
        guard.map.insert(
            key.to_string(),
            Entry {
                value: value.clone(),
                last_used: tick,
            },
        );
        drop(guard);
        drop(inflight);
        Ok((value, false))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
        }
    }
}

impl<V> ResultCache<V> {
    /// Locks the entries. Values are computed outside the lock and every
    /// critical section is a map or set update, so a poisoned lock still
    /// guards consistent state and is recovered.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A key's in-flight mark. Dropping it — after the value is inserted, on an
/// error or during a panic's unwind — clears the mark and wakes the parked
/// racers, so no outcome of a computation can leave them waiting.
struct Inflight<'a, V> {
    cache: &'a ResultCache<V>,
    key: &'a str,
}

impl<V> Drop for Inflight<'_, V> {
    fn drop(&mut self) {
        let mut guard = self.cache.lock();
        guard.inflight.remove(self.key);
        drop(guard);
        self.cache.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn compute(counter: &AtomicUsize, v: u64) -> Result<u64, Infallible> {
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(v)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: ResultCache<u64> = ResultCache::new(4);
        let calls = AtomicUsize::new(0);
        let (v, hit) = cache.get_or_compute("a", || compute(&calls, 1)).unwrap();
        assert_eq!((v, hit), (1, false));
        let (v, hit) = cache.get_or_compute("a", || compute(&calls, 2)).unwrap();
        assert_eq!((v, hit), (1, true), "second lookup must hit");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let cache: ResultCache<u64> = ResultCache::new(2);
        let calls = AtomicUsize::new(0);
        cache.get_or_compute("a", || compute(&calls, 1)).unwrap();
        cache.get_or_compute("b", || compute(&calls, 2)).unwrap();
        // Touch "a" so "b" becomes the least recently used entry.
        cache.get_or_compute("a", || compute(&calls, 9)).unwrap();
        // Inserting "c" evicts "b", not "a".
        cache.get_or_compute("c", || compute(&calls, 3)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit_a) = cache.get_or_compute("a", || compute(&calls, 9)).unwrap();
        assert!(hit_a, "recently used entry must survive");
        let (_, hit_b) = cache.get_or_compute("b", || compute(&calls, 2)).unwrap();
        assert!(!hit_b, "LRU entry must have been evicted");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ResultCache<u64> = ResultCache::new(0);
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let (_, hit) = cache.get_or_compute("a", || compute(&calls, 1)).unwrap();
            assert!(!hit);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn failed_computation_inserts_nothing() {
        let cache: ResultCache<u64> = ResultCache::new(4);
        let r: Result<(u64, bool), &str> = cache.get_or_compute("a", || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.stats().entries, 0);
        // The key is computable again afterwards.
        let calls = AtomicUsize::new(0);
        let (v, hit) = cache.get_or_compute("a", || compute(&calls, 7)).unwrap();
        assert_eq!((v, hit), (7, false));
    }

    #[test]
    fn a_panicking_computation_releases_its_key() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(4));
        let (started_tx, started_rx) = mpsc::channel();
        let panicking = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute("a", || -> Result<u64, Infallible> {
                    started_tx.send(()).unwrap();
                    // Widen the window so the racer below parks on the key.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("computation panics")
                })
            })
        };
        started_rx.recv().unwrap();
        let get_a = |v: u64| {
            let cache = Arc::clone(&cache);
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(cache.get_or_compute("a", || Ok::<_, Infallible>(v)));
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the key stayed in flight after a panic")
        };
        // A racer parked on the panicking computation retries it.
        assert_eq!(get_a(7), Ok((7, false)));
        assert!(panicking.join().is_err(), "the computation panicked");
        assert_eq!(get_a(8), Ok((7, true)));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_misses_single_flight_into_one_computation() {
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(4));
        let calls = Arc::new(AtomicUsize::new(0));
        let results: Vec<(u64, bool)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let calls = Arc::clone(&calls);
                    scope.spawn(move || {
                        cache
                            .get_or_compute("shared", || {
                                // Widen the race window so racers really park.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                compute(&calls, 42)
                            })
                            .unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "exactly one thread computes"
        );
        assert!(results.iter().all(|&(v, _)| v == 42));
        assert_eq!(
            results.iter().filter(|&&(_, hit)| !hit).count(),
            1,
            "exactly one miss; every racer reads the winner's entry"
        );
    }
}
