//! LRU cache of built price schedules / PMFs.
//!
//! The expensive step of every auction request is building the per-price
//! winner schedule and the exponential-mechanism PMF; the cheap step is
//! the seeded price draw. The cache keys the expensive artifact by the
//! *content* of `(Instance, ε)` — the instance's stable FNV-1a digest
//! (see `mcs_types::Instance::digest`) plus the raw bits of ε — so two
//! structurally identical requests share one build regardless of which
//! client sent them.
//!
//! Digest collisions are possible in principle (64-bit hash) but the
//! digest is versioned and covers every field that influences the
//! schedule, so a collision requires adversarial input; the service
//! trades that remote risk for not holding full instances in the key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mcs_auction::PricePmf;
use mcs_types::{Instance, McsError};

/// Cache key: instance content digest + the exact bits of ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    digest: u64,
    eps_bits: u64,
}

impl CacheKey {
    /// Derives the key for an `(instance, ε)` pair.
    pub fn new(instance: &Instance, epsilon: f64) -> Self {
        CacheKey {
            digest: instance.digest(),
            eps_bits: epsilon.to_bits(),
        }
    }
}

struct Entry {
    pmf: Arc<PricePmf>,
    last_used: u64,
}

/// A bounded LRU map from [`CacheKey`] to a shared, immutable PMF.
pub struct PmfCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Inner {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

impl PmfCache {
    /// Creates a cache holding at most `capacity` schedules.
    ///
    /// A zero capacity disables caching: every lookup misses and nothing
    /// is retained.
    pub fn new(capacity: usize) -> Self {
        PmfCache {
            capacity,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, building the PMF with `build` on a miss.
    ///
    /// The build runs *outside* the cache lock, so a slow build never
    /// blocks readers of other keys; two threads racing on the same cold
    /// key may both build, and the second insert simply wins (both builds
    /// are deterministic and identical). The service keeps that race
    /// rare: a worker takes every queued job with the popped job's key,
    /// so a second build needs a same-key request that arrives after the
    /// first one was popped and finds another worker free.
    ///
    /// Returns the PMF and whether this call was a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (infeasible instance, invalid ε).
    /// Errors are not cached: a later retry re-runs the build.
    pub fn get_or_build<F>(
        &self,
        key: CacheKey,
        build: F,
    ) -> Result<(Arc<PricePmf>, bool), McsError>
    where
        F: FnOnce() -> Result<PricePmf, McsError>,
    {
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                let pmf = Arc::clone(&entry.pmf);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((pmf, true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let pmf = Arc::new(build()?);
        if self.capacity > 0 {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            inner.entries.insert(
                key,
                Entry {
                    pmf: Arc::clone(&pmf),
                    last_used: tick,
                },
            );
            while inner.entries.len() > self.capacity {
                if let Some(oldest) = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                {
                    inner.entries.remove(&oldest);
                }
            }
        }
        Ok((pmf, false))
    }

    /// Number of schedules currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident schedules.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cold builds since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_auction::{DpHsrcAuction, ScheduledMechanism};
    use mcs_sim::Setting;

    fn instance(seed: u64) -> Instance {
        Setting::one(80).scaled_down(4).generate(seed).instance
    }

    fn build(inst: &Instance, eps: f64) -> Result<PricePmf, McsError> {
        DpHsrcAuction::new(eps)?.pmf(inst)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = PmfCache::new(4);
        let inst = instance(1);
        let key = CacheKey::new(&inst, 0.1);
        let (_, hit) = cache.get_or_build(key, || build(&inst, 0.1)).unwrap();
        assert!(!hit);
        let (_, hit) = cache
            .get_or_build(key, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_epsilon_is_a_distinct_key() {
        let inst = instance(1);
        assert_ne!(CacheKey::new(&inst, 0.1), CacheKey::new(&inst, 0.2));
        assert_eq!(CacheKey::new(&inst, 0.1), CacheKey::new(&inst.clone(), 0.1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PmfCache::new(2);
        let insts: Vec<Instance> = (0..3).map(instance).collect();
        let keys: Vec<CacheKey> = insts.iter().map(|i| CacheKey::new(i, 0.1)).collect();
        cache
            .get_or_build(keys[0], || build(&insts[0], 0.1))
            .unwrap();
        cache
            .get_or_build(keys[1], || build(&insts[1], 0.1))
            .unwrap();
        // Touch key 0 so key 1 becomes the LRU victim.
        cache.get_or_build(keys[0], || panic!("cached")).unwrap();
        cache
            .get_or_build(keys[2], || build(&insts[2], 0.1))
            .unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit0) = cache
            .get_or_build(keys[0], || build(&insts[0], 0.1))
            .unwrap();
        assert!(hit0, "recently used key survived eviction");
        let (_, hit1) = cache
            .get_or_build(keys[1], || build(&insts[1], 0.1))
            .unwrap();
        assert!(!hit1, "LRU key was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PmfCache::new(0);
        let inst = instance(1);
        let key = CacheKey::new(&inst, 0.1);
        cache.get_or_build(key, || build(&inst, 0.1)).unwrap();
        let (_, hit) = cache.get_or_build(key, || build(&inst, 0.1)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PmfCache::new(2);
        let inst = instance(1);
        let key = CacheKey::new(&inst, -1.0);
        assert!(cache.get_or_build(key, || build(&inst, -1.0)).is_err());
        assert_eq!(cache.len(), 0);
        // A later retry with a fixed builder succeeds.
        let (_, hit) = cache.get_or_build(key, || build(&inst, 0.1)).unwrap();
        assert!(!hit);
    }
}
