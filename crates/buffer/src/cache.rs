//! A shared, cross-query fragment cache for buffered LXP sources.
//!
//! Every [`BufferNavigator`] starts cold: its open tree and pending batch
//! cache live and die with one navigator, so two clients browsing the
//! same virtual view pay the full wire cost twice. The open trees of
//! paper §4 are exactly the reusable unit — a fill reply for hole `h` of
//! source `s` is valid for *any* navigator over `s` as long as the
//! source has not changed — so this module materializes them in a
//! process-wide [`FragmentCache`] keyed by `(source, hole id)`.
//!
//! Wrapper hole ids are self-describing and deterministic (the tree
//! wrapper derives them from the uri and child position, the relational
//! wrapper from `db.table.row`), which is what makes the key sound
//! across sessions over unchanged sources.
//!
//! # Bounds, recency, and invalidation
//!
//! The cache is byte-budgeted: inserting past the budget evicts the
//! least-recently-used entries first (entries larger than the whole
//! budget are never admitted). Every source has an *epoch*;
//! [`FragmentCache::invalidate`] bumps it and purges the source's
//! entries, so a wrapper outage, an open circuit breaker, or an explicit
//! invalidation can never be papered over with stale fragments. Only
//! verified successful replies are ever inserted — the buffer stores a
//! reply *after* it passed the LXP progress checks, so injected faults
//! and protocol violations cannot poison the cache.
//!
//! [`BufferNavigator`]: crate::buffer::BufferNavigator

use crate::fragment::Fragment;
use crate::lxp::HoleId;
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::pool::lock_unpoisoned;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Default byte budget for a [`FragmentCache`] (4 MiB of wire bytes).
pub const DEFAULT_CACHE_BUDGET: u64 = 4 << 20;

/// Per-source cache effectiveness counters, as returned by
/// [`FragmentCache::source_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCacheStats {
    /// Lookups answered from the cache (no wire exchange).
    pub hits: u64,
    /// Lookups that had to go to the wire.
    pub misses: u64,
    /// Times this source's entries were invalidated (epoch bumps).
    pub invalidations: u64,
}

/// A point-in-time copy of the cache-wide counters, as returned by
/// [`FragmentCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentCacheStats {
    /// Lookups answered from the cache across all sources.
    pub hits: u64,
    /// Lookups that missed across all sources.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Inserts that found a same-epoch entry already resident (a racing
    /// worker filled the same hole first) and coalesced into a recency
    /// refresh instead of a re-admission.
    pub coalesced: u64,
    /// Entries evicted by LRU byte pressure.
    pub evictions: u64,
    /// Source-level invalidations (epoch bumps).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Wire bytes currently resident.
    pub bytes: u64,
    /// The configured byte budget.
    pub budget: u64,
}

struct CacheEntry {
    /// `Arc`-backed so a hit hands out a shared handle (refcount bump)
    /// instead of deep-cloning the fragment subtrees.
    fragments: Arc<Vec<Fragment>>,
    bytes: u64,
    epoch: u64,
    tick: u64,
}

#[derive(Default)]
struct CacheInner {
    budget: u64,
    cur_bytes: u64,
    tick: u64,
    entries: HashMap<(String, HoleId), CacheEntry>,
    /// Recency index: tick → key. Ticks are unique (monotone counter),
    /// so eviction pops the smallest tick in `O(log n)`.
    lru: BTreeMap<u64, (String, HoleId)>,
    /// Current epoch per source; entries from older epochs are dead.
    epochs: HashMap<String, u64>,
    /// Cached `get_root` replies per source uri (epoch-guarded like
    /// fragment entries, but exempt from the byte budget: one hole id).
    roots: HashMap<String, (HoleId, u64)>,
    per_source: HashMap<String, SourceCacheStats>,
}

/// A shared, size-bounded (LRU, byte-budgeted), epoch-invalidated cache
/// of LXP fill replies, keyed by `(source, hole id)`.
///
/// Clones share storage (`Rc` inside), like the other observability
/// handles in this crate: hand the same cache to every
/// [`BufferNavigator`] (via
/// [`with_fragment_cache`](crate::buffer::BufferNavigator::with_fragment_cache))
/// that should benefit from — and contribute to — cross-query reuse.
///
/// The aggregate counters are metric cells, so
/// [`FragmentCache::bind_into`] can register the very same storage in a
/// [`MetricsRegistry`] under `mix_fragcache_*` series.
///
/// [`BufferNavigator`]: crate::buffer::BufferNavigator
#[derive(Clone)]
pub struct FragmentCache {
    inner: Arc<Mutex<CacheInner>>,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    coalesced: Counter,
    evictions: Counter,
    invalidations: Counter,
    bytes: Gauge,
    entries: Gauge,
}

impl Default for FragmentCache {
    fn default() -> Self {
        FragmentCache::new()
    }
}

impl std::fmt::Debug for FragmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FragmentCache")
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("budget", &s.budget)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl FragmentCache {
    /// A fresh cache with the default byte budget
    /// ([`DEFAULT_CACHE_BUDGET`]).
    pub fn new() -> Self {
        FragmentCache::with_budget(DEFAULT_CACHE_BUDGET)
    }

    /// A fresh cache bounded to `budget` wire bytes. A budget of 0
    /// admits nothing (useful for starving the cache in tests).
    pub fn with_budget(budget: u64) -> Self {
        FragmentCache {
            inner: Arc::new(Mutex::new(CacheInner { budget, ..CacheInner::default() })),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            coalesced: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
            bytes: Gauge::new(),
            entries: Gauge::new(),
        }
    }

    /// Do `self` and `other` share storage?
    pub fn same_cache(&self, other: &FragmentCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Look up the cached reply for `hole` of `source`, refreshing its
    /// recency. Counts a hit or a miss either way. A hit is clone-free:
    /// the returned `Arc` shares the cached allocation.
    pub fn lookup(&self, source: &str, hole: &HoleId) -> Option<Arc<Vec<Fragment>>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let epoch = inner.epochs.get(source).copied().unwrap_or(0);
        let key = (source.to_string(), hole.clone());
        let fresh = match inner.entries.get(&key) {
            Some(e) if e.epoch == epoch => Some(e.fragments.clone()),
            Some(_) => {
                // Safety net: invalidation purges eagerly, but never
                // serve an entry that outlived its epoch.
                if let Some(dead) = inner.entries.remove(&key) {
                    inner.cur_bytes -= dead.bytes;
                    inner.lru.remove(&dead.tick);
                }
                None
            }
            None => None,
        };
        match fresh {
            Some(fragments) => {
                inner.tick += 1;
                let tick = inner.tick;
                let old = inner.entries.get_mut(&key).map(|e| std::mem::replace(&mut e.tick, tick));
                if let Some(old) = old {
                    inner.lru.remove(&old);
                    inner.lru.insert(tick, key.clone());
                }
                inner.per_source.entry(key.0).or_default().hits += 1;
                drop(inner);
                self.hits.inc();
                self.sync_gauges();
                Some(fragments)
            }
            None => {
                inner.per_source.entry(key.0).or_default().misses += 1;
                drop(inner);
                self.misses.inc();
                self.sync_gauges();
                None
            }
        }
    }

    /// Admit the reply for `hole` of `source`, evicting LRU entries as
    /// needed to respect the byte budget. Replies larger than the whole
    /// budget are not admitted. Admission clones the `Arc`, not the
    /// fragments — the cache and the caller share one allocation.
    /// Returns the `(source, hole, bytes)` of every entry evicted to
    /// make room, so callers can trace them.
    pub fn insert(
        &self,
        source: &str,
        hole: &HoleId,
        fragments: &Arc<Vec<Fragment>>,
    ) -> Vec<(String, HoleId, u64)> {
        let bytes: u64 = fragments.iter().map(|f| f.wire_bytes() as u64).sum();
        let mut inner = lock_unpoisoned(&self.inner);
        if bytes > inner.budget {
            return Vec::new();
        }
        let epoch = inner.epochs.get(source).copied().unwrap_or(0);
        let key = (source.to_string(), hole.clone());
        if let Some(prior) = inner.entries.get(&key) {
            if prior.epoch == epoch {
                // A racing worker admitted this hole between our lookup
                // miss and this insert. Keep the resident entry (hits may
                // already share its allocation) and coalesce into a
                // recency refresh, so concurrent prefetchers don't
                // double-count insertions or churn the LRU.
                inner.tick += 1;
                let tick = inner.tick;
                let old = inner
                    .entries
                    .get_mut(&key)
                    .map(|e| std::mem::replace(&mut e.tick, tick))
                    .expect("entry just observed");
                inner.lru.remove(&old);
                inner.lru.insert(tick, key);
                drop(inner);
                self.coalesced.inc();
                self.sync_gauges();
                return Vec::new();
            }
        }
        if let Some(prior) = inner.entries.remove(&key) {
            inner.cur_bytes -= prior.bytes;
            inner.lru.remove(&prior.tick);
        }
        let mut evicted = Vec::new();
        while inner.cur_bytes + bytes > inner.budget {
            let Some((&tick, _)) = inner.lru.iter().next() else { break };
            let victim_key = inner.lru.remove(&tick).expect("lru index is consistent");
            if let Some(victim) = inner.entries.remove(&victim_key) {
                inner.cur_bytes -= victim.bytes;
                evicted.push((victim_key.0, victim_key.1, victim.bytes));
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.lru.insert(tick, key.clone());
        inner.cur_bytes += bytes;
        inner
            .entries
            .insert(key, CacheEntry { fragments: Arc::clone(fragments), bytes, epoch, tick });
        drop(inner);
        self.insertions.inc();
        self.evictions.add(evicted.len() as u64);
        self.sync_gauges();
        evicted
    }

    /// The cached `get_root` reply for `source`, if any (epoch-guarded).
    pub fn lookup_root(&self, source: &str) -> Option<HoleId> {
        let inner = lock_unpoisoned(&self.inner);
        let epoch = inner.epochs.get(source).copied().unwrap_or(0);
        match inner.roots.get(source) {
            Some((hole, e)) if *e == epoch => Some(hole.clone()),
            _ => None,
        }
    }

    /// Remember `source`'s root hole so warm sessions skip the
    /// `get_root` exchange too.
    pub fn insert_root(&self, source: &str, hole: &HoleId) {
        let mut inner = lock_unpoisoned(&self.inner);
        let epoch = inner.epochs.get(source).copied().unwrap_or(0);
        inner.roots.insert(source.to_string(), (hole.clone(), epoch));
    }

    /// Drop everything cached for `source` and bump its epoch, so
    /// nothing admitted before the call can ever be served again.
    /// Returns `(entries, bytes)` purged (the root entry counts as an
    /// entry of zero bytes).
    ///
    /// The buffer calls this whenever a navigation over `source`
    /// degrades — retries exhausted, a permanent wrapper error, or an
    /// open circuit breaker — and clients may call it by hand when they
    /// know the source changed.
    pub fn invalidate(&self, source: &str) -> (u64, u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        *inner.epochs.entry(source.to_string()).or_insert(0) += 1;
        let dead: Vec<(String, HoleId)> =
            inner.entries.keys().filter(|(s, _)| s == source).cloned().collect();
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for key in dead {
            if let Some(e) = inner.entries.remove(&key) {
                inner.cur_bytes -= e.bytes;
                inner.lru.remove(&e.tick);
                entries += 1;
                bytes += e.bytes;
            }
        }
        if inner.roots.remove(source).is_some() {
            entries += 1;
        }
        inner.per_source.entry(source.to_string()).or_default().invalidations += 1;
        drop(inner);
        self.invalidations.inc();
        self.sync_gauges();
        (entries, bytes)
    }

    /// Drop every entry for every source (budget and counters survive).
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        let sources: Vec<String> =
            inner.entries.keys().map(|(s, _)| s.clone()).chain(inner.roots.keys().cloned()).collect();
        for s in sources {
            *inner.epochs.entry(s).or_insert(0) += 1;
        }
        inner.entries.clear();
        inner.lru.clear();
        inner.roots.clear();
        inner.cur_bytes = 0;
        drop(inner);
        self.sync_gauges();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        lock_unpoisoned(&self.inner).cur_bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        lock_unpoisoned(&self.inner).budget
    }

    /// The current epoch of `source` (0 until first invalidated). The
    /// semantic view catalog folds this into its staleness oracle, so a
    /// fragment-level invalidation also retires every dependent view.
    pub fn source_epoch(&self, source: &str) -> u64 {
        lock_unpoisoned(&self.inner).epochs.get(source).copied().unwrap_or(0)
    }

    /// A point-in-time copy of the cache-wide counters.
    pub fn stats(&self) -> FragmentCacheStats {
        let inner = lock_unpoisoned(&self.inner);
        FragmentCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            coalesced: self.coalesced.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            entries: inner.entries.len() as u64,
            bytes: inner.cur_bytes,
            budget: inner.budget,
        }
    }

    /// Per-source hit/miss/invalidation counters (zeroes for a source
    /// the cache has never seen) — what `explain_analyze()`'s per-source
    /// table reads for its hits column.
    pub fn source_stats(&self, source: &str) -> SourceCacheStats {
        lock_unpoisoned(&self.inner).per_source.get(source).copied().unwrap_or_default()
    }

    /// Register the cache's counter/gauge *cells* in `registry` under
    /// `mix_fragcache_*` series, so metrics snapshots and Prometheus
    /// scrapes see live cache effectiveness. Binding into several
    /// registries is fine — they all read the same storage.
    pub fn bind_into(&self, registry: &MetricsRegistry) {
        registry.bind_counter(
            "mix_fragcache_hits_total",
            "Fill lookups answered from the shared fragment cache",
            &[],
            &self.hits,
        );
        registry.bind_counter(
            "mix_fragcache_misses_total",
            "Fill lookups that missed the shared fragment cache",
            &[],
            &self.misses,
        );
        registry.bind_counter(
            "mix_fragcache_insertions_total",
            "Replies admitted into the shared fragment cache",
            &[],
            &self.insertions,
        );
        registry.bind_counter(
            "mix_fragcache_coalesced_total",
            "Racing inserts coalesced onto an already-resident same-epoch entry",
            &[],
            &self.coalesced,
        );
        registry.bind_counter(
            "mix_fragcache_evictions_total",
            "Entries evicted from the shared fragment cache by byte pressure",
            &[],
            &self.evictions,
        );
        registry.bind_counter(
            "mix_fragcache_invalidations_total",
            "Source-level invalidations (epoch bumps) of the shared fragment cache",
            &[],
            &self.invalidations,
        );
        registry.bind_gauge(
            "mix_fragcache_bytes",
            "Wire bytes resident in the shared fragment cache",
            &[],
            &self.bytes,
        );
        registry.bind_gauge(
            "mix_fragcache_entries",
            "Entries resident in the shared fragment cache",
            &[],
            &self.entries,
        );
    }

    fn sync_gauges(&self) {
        let inner = lock_unpoisoned(&self.inner);
        self.bytes.set(inner.cur_bytes);
        self.entries.set(inner.entries.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::Label;

    fn frag(label: &str, holes: usize) -> Arc<Vec<Fragment>> {
        Arc::new(vec![Fragment::Node {
            label: Label::new(label),
            children: (0..holes).map(|i| Fragment::Hole(format!("h{i}"))).collect(),
        }])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = FragmentCache::new();
        assert_eq!(c.lookup("s", &"a".to_string()), None);
        c.insert("s", &"a".to_string(), &frag("x", 2));
        assert_eq!(c.lookup("s", &"a".to_string()), Some(frag("x", 2)));
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.insertions), (1, 1, 1));
        assert_eq!(c.source_stats("s").hits, 1);
        assert_eq!(c.source_stats("s").misses, 1);
    }

    #[test]
    fn hits_share_the_cached_allocation() {
        // The satellite fix this PR pins down: a cache hit must NOT deep-
        // clone the fragments — every handle points at the same `Vec`.
        let c = FragmentCache::new();
        let original = frag("x", 3);
        c.insert("s", &"a".to_string(), &original);
        let hit1 = c.lookup("s", &"a".to_string()).unwrap();
        let hit2 = c.lookup("s", &"a".to_string()).unwrap();
        assert!(Arc::ptr_eq(&original, &hit1), "hit shares the inserted allocation");
        assert!(Arc::ptr_eq(&hit1, &hit2), "repeated hits share it too");
    }

    #[test]
    fn keys_are_per_source() {
        let c = FragmentCache::new();
        c.insert("s1", &"a".to_string(), &frag("x", 0));
        assert_eq!(c.lookup("s2", &"a".to_string()), None);
        assert!(c.lookup("s1", &"a".to_string()).is_some());
    }

    #[test]
    fn lru_eviction_under_byte_pressure() {
        let one = frag("x", 0);
        let bytes: u64 = one.iter().map(|f| f.wire_bytes() as u64).sum();
        let c = FragmentCache::with_budget(bytes * 2);
        c.insert("s", &"a".to_string(), &one);
        c.insert("s", &"b".to_string(), &one);
        // Touch `a` so `b` is the LRU victim.
        assert!(c.lookup("s", &"a".to_string()).is_some());
        let evicted = c.insert("s", &"c".to_string(), &one);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].1, "b");
        assert!(c.lookup("s", &"a".to_string()).is_some());
        assert_eq!(c.lookup("s", &"b".to_string()), None);
        assert!(c.lookup("s", &"c".to_string()).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.resident_bytes() <= c.budget());
    }

    #[test]
    fn oversize_entries_are_not_admitted() {
        let c = FragmentCache::with_budget(1);
        assert!(c.insert("s", &"a".to_string(), &frag("x", 0)).is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.lookup("s", &"a".to_string()), None);
    }

    #[test]
    fn invalidate_purges_and_outlives_epoch() {
        let c = FragmentCache::new();
        c.insert("s", &"a".to_string(), &frag("x", 1));
        c.insert_root("s", &"root".to_string());
        c.insert("t", &"a".to_string(), &frag("y", 0));
        let (entries, bytes) = c.invalidate("s");
        assert_eq!(entries, 2); // fragment entry + root entry
        assert!(bytes > 0);
        assert_eq!(c.lookup("s", &"a".to_string()), None);
        assert_eq!(c.lookup_root("s"), None);
        // The other source is untouched.
        assert!(c.lookup("t", &"a".to_string()).is_some());
        assert_eq!(c.source_stats("s").invalidations, 1);
        // Re-admission after invalidation works (new epoch).
        c.insert("s", &"a".to_string(), &frag("x", 1));
        assert!(c.lookup("s", &"a".to_string()).is_some());
    }

    #[test]
    fn root_cache_round_trips() {
        let c = FragmentCache::new();
        assert_eq!(c.lookup_root("s"), None);
        c.insert_root("s", &"uri|root".to_string());
        assert_eq!(c.lookup_root("s"), Some("uri|root".to_string()));
    }

    #[test]
    fn metrics_binding_reads_live_cells() {
        let c = FragmentCache::new();
        let reg = MetricsRegistry::enabled();
        c.bind_into(&reg);
        c.insert("s", &"a".to_string(), &frag("x", 0));
        c.lookup("s", &"a".to_string());
        c.lookup("s", &"b".to_string());
        let snap = reg.snapshot();
        assert_eq!(snap.value("mix_fragcache_hits_total", &[]), Some(1));
        assert_eq!(snap.value("mix_fragcache_misses_total", &[]), Some(1));
        assert_eq!(snap.value("mix_fragcache_insertions_total", &[]), Some(1));
        assert_eq!(snap.value("mix_fragcache_entries", &[]), Some(1));
        assert!(snap.value("mix_fragcache_bytes", &[]).unwrap() > 0);
    }

    #[test]
    fn clear_bumps_epochs() {
        let c = FragmentCache::new();
        c.insert("s", &"a".to_string(), &frag("x", 0));
        c.insert_root("s", &"r".to_string());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.lookup_root("s"), None);
    }
}
