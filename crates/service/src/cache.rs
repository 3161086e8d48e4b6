//! Bounded LRU result cache with single-flight deduplication.
//!
//! The daemon's workload is many near-duplicate expensive CTMC solves:
//! engineers sweeping a parameter space re-request the same canonical
//! configuration over and over, often concurrently. Two mechanisms
//! amortize that:
//!
//! * **LRU caching** — completed results are kept under their canonical
//!   key (the canonical JSON encoding of the validated config, see
//!   `crate::json`) up to a fixed capacity; the least-recently-used
//!   entry is evicted on overflow.
//! * **Single-flight** — when a request arrives for a key that is
//!   *currently being computed*, it does not start a second solve; it
//!   blocks on the in-flight computation and shares its result. Errors
//!   are shared with the waiters of that flight but never cached.
//!
//! Waiting is condvar-based, so shared waiters consume no CPU. If a
//! compute panics, the flight is resolved with an error for its waiters
//! (the panic still propagates to the computing caller).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the completed-result cache.
    Hit,
    /// Computed by this caller (and cached on success).
    Miss,
    /// Shared the result of a concurrent in-flight computation.
    Shared,
}

/// Monotonic counters describing cache behaviour since startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the completed-result cache.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Lookups that piggybacked on an in-flight computation.
    pub shared: u64,
    /// Completed entries evicted to stay within capacity.
    pub evictions: u64,
}

type FlightResult<V> = Result<V, String>;

/// One in-flight computation; waiters block on the condvar.
struct Flight<V> {
    done: Mutex<Option<FlightResult<V>>>,
    cv: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: FlightResult<V>) {
        *self.done.lock().expect("flight lock") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> FlightResult<V> {
        let mut done = self.done.lock().expect("flight lock");
        while done.is_none() {
            done = self.cv.wait(done).expect("flight lock");
        }
        done.clone().expect("checked above")
    }
}

/// A completed entry with its recency stamp.
struct Ready<V> {
    value: V,
    last_used: u64,
}

enum Slot<V> {
    Ready(Ready<V>),
    InFlight(Arc<Flight<V>>),
}

struct Inner<V> {
    map: HashMap<String, Slot<V>>,
    tick: u64,
}

/// The cache. `V` is the cached value (the service stores encoded
/// response bodies wrapped in `Arc`, so clones are cheap).
pub struct SingleFlightCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    shared: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> SingleFlightCache<V> {
    /// A cache holding at most `capacity` completed entries
    /// (`capacity == 0` disables caching but keeps single-flight).
    pub fn new(capacity: usize) -> Self {
        SingleFlightCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of completed entries currently cached.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .map
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Looks up `key`, running `compute` on a miss. Concurrent callers
    /// with the same key share one computation. Successful results are
    /// cached; errors are returned (and shared with any waiters) but not
    /// cached, so a transient failure does not poison the key.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returned, verbatim (possibly via another
    /// caller's flight).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `compute` after resolving the flight with
    /// an error so waiters are not stranded.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> FlightResult<V>,
    ) -> (FlightResult<V>, Outcome) {
        let flight = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(key) {
                Some(Slot::Ready(ready)) => {
                    ready.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(ready.value.clone()), Outcome::Hit);
                }
                Some(Slot::InFlight(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(inner);
                    self.shared.fetch_add(1, Ordering::Relaxed);
                    return (flight.wait(), Outcome::Shared);
                }
                None => {
                    let flight = Arc::new(Flight::new());
                    inner
                        .map
                        .insert(key.to_owned(), Slot::InFlight(Arc::clone(&flight)));
                    flight
                }
            }
        };

        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = panic::catch_unwind(AssertUnwindSafe(compute));

        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.remove(key);
        match result {
            Ok(Ok(value)) => {
                if self.capacity > 0 {
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.map.insert(
                        key.to_owned(),
                        Slot::Ready(Ready {
                            value: value.clone(),
                            last_used: tick,
                        }),
                    );
                    self.evict_over_capacity(&mut inner);
                }
                drop(inner);
                flight.resolve(Ok(value.clone()));
                (Ok(value), Outcome::Miss)
            }
            Ok(Err(message)) => {
                drop(inner);
                flight.resolve(Err(message.clone()));
                (Err(message), Outcome::Miss)
            }
            Err(panic_payload) => {
                drop(inner);
                flight.resolve(Err("internal: computation panicked".to_owned()));
                panic::resume_unwind(panic_payload);
            }
        }
    }

    /// Evicts least-recently-used completed entries until the count of
    /// completed entries is within capacity. In-flight entries are never
    /// evicted. O(entries) per eviction — capacities are small (hundreds)
    /// and evictions happen at most once per solve, which dwarfs the scan.
    fn evict_over_capacity(&self, inner: &mut Inner<V>) {
        loop {
            let ready_count = inner
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready(_)))
                .count();
            if ready_count <= self.capacity {
                return;
            }
            let oldest = inner
                .map
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready(ready) => Some((ready.last_used, key.clone())),
                    Slot::InFlight(_) => None,
                })
                .min()
                .map(|(_, key)| key);
            match oldest {
                Some(key) => {
                    inner.map.remove(&key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn hit_after_miss() {
        let cache: SingleFlightCache<u32> = SingleFlightCache::new(4);
        let (first, outcome) = cache.get_or_compute("k", || Ok(7));
        assert_eq!((first.unwrap(), outcome), (7, Outcome::Miss));
        let (second, outcome) = cache.get_or_compute("k", || panic!("must not recompute"));
        assert_eq!((second.unwrap(), outcome), (7, Outcome::Hit));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                shared: 0,
                evictions: 0
            }
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: SingleFlightCache<u32> = SingleFlightCache::new(4);
        let (result, _) = cache.get_or_compute("k", || Err("boom".to_owned()));
        assert_eq!(result.unwrap_err(), "boom");
        assert_eq!(cache.len(), 0);
        let (result, outcome) = cache.get_or_compute("k", || Ok(1));
        assert_eq!((result.unwrap(), outcome), (1, Outcome::Miss));
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache: SingleFlightCache<u32> = SingleFlightCache::new(2);
        cache.get_or_compute("a", || Ok(1)).0.unwrap();
        cache.get_or_compute("b", || Ok(2)).0.unwrap();
        // Touch `a` so `b` is the LRU entry.
        assert_eq!(cache.get_or_compute("a", || Ok(99)).1, Outcome::Hit);
        cache.get_or_compute("c", || Ok(3)).0.unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get_or_compute("a", || Ok(99)).1, Outcome::Hit);
        assert_eq!(cache.get_or_compute("b", || Ok(2)).1, Outcome::Miss); // evicted
    }

    #[test]
    fn zero_capacity_disables_caching_only() {
        let cache: SingleFlightCache<u32> = SingleFlightCache::new(0);
        assert_eq!(cache.get_or_compute("k", || Ok(1)).1, Outcome::Miss);
        assert_eq!(cache.get_or_compute("k", || Ok(2)).1, Outcome::Miss);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let cache: Arc<SingleFlightCache<u32>> = Arc::new(SingleFlightCache::new(4));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_compute("k", || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for the other
                    // threads to pile onto it.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok(42)
                })
            }));
        }
        let outcomes: Vec<Outcome> = handles
            .into_iter()
            .map(|h| {
                let (result, outcome) = h.join().unwrap();
                assert_eq!(result.unwrap(), 42);
                outcome
            })
            .collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one solve");
        let misses = outcomes.iter().filter(|o| **o == Outcome::Miss).count();
        assert_eq!(misses, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.shared, 3);
    }

    #[test]
    fn panicking_compute_releases_waiters() {
        let cache: Arc<SingleFlightCache<u32>> = Arc::new(SingleFlightCache::new(4));
        let barrier = Arc::new(Barrier::new(2));
        let waiter = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Give the panicking thread time to register the flight.
                std::thread::sleep(std::time::Duration::from_millis(20));
                cache.get_or_compute("k", || Ok(7))
            })
        };
        let panicker = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute("k", || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    panic!("solver bug")
                });
            })
        };
        assert!(panicker.join().is_err(), "panic propagates to the computer");
        // The waiter either shared the failed flight (error) or raced the
        // removal and computed fresh (Ok(7)); it must not hang or panic.
        let (result, _) = waiter.join().unwrap();
        match result {
            Ok(v) => assert_eq!(v, 7),
            Err(msg) => assert!(msg.contains("panicked")),
        }
    }
}
