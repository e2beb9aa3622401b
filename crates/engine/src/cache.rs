//! Content-addressed result cache.
//!
//! A cell's key digests everything its result depends on: the DAG's
//! [structural hash](stochdag_dag::structural_hash) (structure +
//! weights), the failure model's λ, the canonical estimator id, and the
//! cell's deterministic seed. Identical inputs ⇒ identical key, on any
//! machine, in any session — so repeated or resumed campaigns skip
//! every finished cell.
//!
//! Two tiers: an in-memory map (always on) and an optional on-disk
//! layer (`<dir>/<k[0..2]>/<key>.json`, written atomically via a
//! per-process-unique temp-file rename) that persists across processes
//! — and is safe to **share between concurrent worker processes**:
//! racing writers of the same key each rename a complete payload into
//! place, so readers never observe a torn entry (see `sweep --workers`).
//!
//! The on-disk tier supports LRU garbage collection
//! ([`ResultCache::gc_disk`]): every disk hit refreshes the entry's
//! modification time, so after a campaign the cache can be pruned to a
//! byte budget by evicting the least-recently-used entries first.

use crate::keys::StableHasher;
use std::collections::HashMap;
use std::fs::FileTimes;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;
use stochdag_core::Estimate;

/// Bump when cached payload semantics change (invalidates old entries).
const CACHE_VERSION: u64 = 1;

/// Temp files younger than this survive [`ResultCache::gc_disk`]: they
/// may be a concurrent writer's in-flight payload (see `store`), not an
/// interrupted write's leftover.
const TMP_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// Compute the content key of one estimation cell.
pub fn cell_key(dag_hash: u128, lambda: f64, estimator_id: &str, seed: u64) -> String {
    let mut h = StableHasher::new("stochdag-cell");
    h.write_u64(CACHE_VERSION)
        .write_u128(dag_hash)
        .write_f64(lambda)
        .write_str(estimator_id)
        .write_u64(seed);
    h.finish_hex()
}

/// Which cache tier served a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// The per-process in-memory map.
    Memory,
    /// The shared on-disk store.
    Disk,
}

impl CacheTier {
    /// Stable wire/report name (`"memory"` / `"disk"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
        }
    }

    /// Parse a wire name produced by [`CacheTier::as_str`].
    pub(crate) fn parse(s: &str) -> Option<CacheTier> {
        match s {
            "memory" => Some(CacheTier::Memory),
            "disk" => Some(CacheTier::Disk),
            _ => None,
        }
    }
}

/// Outcome of one [`ResultCache::gc_disk`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheGcStats {
    /// Entries surviving the pass.
    pub kept_files: usize,
    /// Total payload bytes surviving the pass.
    pub kept_bytes: u64,
    /// Entries (and stray temp files) deleted.
    pub evicted_files: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
}

/// Two-tier content-addressed cache of [`Estimate`]s.
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<String, Estimate>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ResultCache {
    /// Purely in-memory cache (one process lifetime).
    pub fn in_memory() -> ResultCache {
        ResultCache {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Cache backed by a directory (created on first write).
    pub fn on_disk(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: Some(dir.into()),
            ..ResultCache::in_memory()
        }
    }

    /// The on-disk tier's directory, when one is configured. This is
    /// what multi-process backends hand to worker processes so every
    /// shard shares one content-addressed store.
    pub fn disk_dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn path_of(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| {
            let shard = &key[..2];
            d.join(shard).join(format!("{key}.json"))
        })
    }

    /// Look a key up (memory first, then disk). Counts a hit or miss.
    pub fn lookup(&self, key: &str) -> Option<Estimate> {
        self.lookup_tiered(key).map(|(est, _)| est)
    }

    /// Like [`lookup`](ResultCache::lookup), but also reports **which
    /// tier** served the hit — the primitive behind per-tier telemetry
    /// counters and the `tier` field of cell wire events.
    pub fn lookup_tiered(&self, key: &str) -> Option<(Estimate, CacheTier)> {
        if let Some(found) = self.mem.lock().expect("cache poisoned").get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((found.clone(), CacheTier::Memory));
        }
        if let Some(path) = self.path_of(key) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                match serde::json::from_str::<Estimate>(&text) {
                    Ok(est) => {
                        // Refresh the entry's mtime so LRU eviction
                        // (`gc_disk`) sees it as recently used.
                        let _ = std::fs::File::options()
                            .append(true)
                            .open(&path)
                            .and_then(|f| {
                                f.set_times(FileTimes::new().set_modified(SystemTime::now()))
                            });
                        self.mem
                            .lock()
                            .expect("cache poisoned")
                            .insert(key.to_string(), est.clone());
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some((est, CacheTier::Disk));
                    }
                    Err(e) => {
                        // A corrupt entry is a miss, not an error — the
                        // cell simply recomputes and overwrites it.
                        eprintln!("warning: discarding corrupt cache entry {path:?}: {e}");
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a result under a key (memory + disk when configured).
    ///
    /// The first store of a key in this cache wins: a later store of
    /// the same key leaves the memory entry and the disk file alone. A
    /// disk entry this cache never stored in memory (a corrupt one,
    /// another process's) is overwritten.
    ///
    /// Concurrent-writer safe: the payload is written to a temp name
    /// unique per (process, store call) and atomically renamed into
    /// place, so two worker processes sharing the directory can race on
    /// the same key without a reader ever observing a torn file — the
    /// rename is last-writer-wins over complete payloads only.
    pub fn store(&self, key: &str, est: &Estimate) {
        self.store_first(key, est);
    }

    /// [`ResultCache::store`], returning the earlier estimate when an
    /// earlier store of `key` won.
    ///
    /// Two campaigns sharing one cache (a serve daemon) that both miss
    /// a cell both compute it. The losing caller adopts the winner, so
    /// every campaign's row for the cell — and the disk entry a later
    /// run reads — carries the same estimate, `elapsed` included.
    pub(crate) fn store_first(&self, key: &str, est: &Estimate) -> Option<Estimate> {
        static STORE_SEQ: AtomicUsize = AtomicUsize::new(0);
        {
            let mut mem = self.mem.lock().expect("cache poisoned");
            if let Some(winner) = mem.get(key) {
                return Some(winner.clone());
            }
            mem.insert(key.to_string(), est.clone());
        }
        if let Some(path) = self.path_of(key) {
            let parent = path.parent().expect("sharded path has a parent");
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("warning: cannot create cache dir {parent:?}: {e}");
                return None;
            }
            let tmp = path.with_extension(format!(
                "json.tmp.{}.{}",
                std::process::id(),
                STORE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let payload = serde::json::to_string(est);
            if let Err(e) =
                std::fs::write(&tmp, &payload).and_then(|()| std::fs::rename(&tmp, &path))
            {
                eprintln!("warning: cannot persist cache entry {path:?}: {e}");
            }
        }
        None
    }

    /// Whether `key` is present (memory or disk) **without** touching
    /// the hit/miss counters, loading the payload, or refreshing LRU
    /// recency. This is the primitive behind `sweep --resume-report`:
    /// diff a spec against the cache without perturbing it.
    pub fn probe(&self, key: &str) -> bool {
        if self.mem.lock().expect("cache poisoned").contains_key(key) {
            return true;
        }
        match self.path_of(key) {
            Some(path) => path.is_file(),
            None => false,
        }
    }

    /// Prune the on-disk tier to at most `max_bytes` of payload by
    /// deleting least-recently-used entries first (oldest modification
    /// time; ties broken by path for determinism). Stray `.json.tmp`
    /// files from interrupted writes are always removed. A cache
    /// without a disk tier returns empty stats.
    ///
    /// The in-memory tier is unaffected: it is per-process and cheap,
    /// while the byte budget governs what persists across campaigns.
    pub fn gc_disk(&self, max_bytes: u64) -> Result<CacheGcStats, crate::EngineError> {
        self.gc_disk_inner(max_bytes).map_err(|e| {
            crate::EngineError::cache(format!(
                "gc of {}: {e}",
                self.dir
                    .as_deref()
                    .unwrap_or(std::path::Path::new("?"))
                    .display()
            ))
        })
    }

    fn gc_disk_inner(&self, max_bytes: u64) -> std::io::Result<CacheGcStats> {
        // Another process may gc or rewrite the shared directory while
        // this pass iterates; a file vanishing between listing and
        // stat/unlink means its reclamation goal is already met, so
        // `NotFound` is success, never an error.
        fn remove_if_present(path: &std::path::Path) -> std::io::Result<bool> {
            match std::fs::remove_file(path) {
                Ok(()) => Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
                Err(e) => Err(e),
            }
        }
        let mut stats = CacheGcStats::default();
        let Some(dir) = &self.dir else {
            return Ok(stats);
        };
        if !dir.is_dir() {
            return Ok(stats);
        }
        let mut entries: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for shard in std::fs::read_dir(dir)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for file in std::fs::read_dir(&shard)? {
                let path = file?.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.contains(".json.tmp") {
                    // Temp file of an atomic write (`<key>.json.tmp.
                    // <pid>.<seq>`) — either an interrupted write's
                    // leftover (reclaim) or a concurrent writer's
                    // in-flight payload about to be renamed (leave it:
                    // deleting it would lose that writer's entry). The
                    // two are distinguished by age; a live write-then-
                    // rename completes in well under the grace period.
                    // A future mtime (clock stepped backward) makes
                    // elapsed() fail — treat that as fresh: deleting a
                    // live writer's tmp loses its entry, keeping a
                    // stale one only wastes bytes until the next GC.
                    let meta = path.metadata().ok();
                    let fresh = meta
                        .as_ref()
                        .and_then(|m| m.modified().ok())
                        .is_some_and(|t| t.elapsed().map_or(true, |age| age < TMP_GRACE));
                    if fresh {
                        continue;
                    }
                    let len = meta.map(|m| m.len()).unwrap_or(0);
                    if remove_if_present(&path)? {
                        stats.evicted_files += 1;
                        stats.evicted_bytes += len;
                    }
                    continue;
                }
                if !name.ends_with(".json") {
                    continue;
                }
                let meta = match path.metadata() {
                    Ok(m) => m,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e),
                };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                entries.push((mtime, path, meta.len()));
            }
        }
        let mut total: u64 = entries.iter().map(|&(_, _, len)| len).sum();
        stats.kept_files = entries.len();
        // Oldest first; path tiebreak keeps eviction order deterministic
        // when mtimes collide (coarse filesystem timestamps).
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in entries {
            if total <= max_bytes {
                break;
            }
            if remove_if_present(&path)? {
                stats.evicted_files += 1;
                stats.evicted_bytes += len;
            }
            total -= len;
            stats.kept_files -= 1;
        }
        stats.kept_bytes = total;
        Ok(stats)
    }

    /// Hits counted since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses counted since construction.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample(value: f64) -> Estimate {
        Estimate {
            value,
            elapsed: Duration::from_millis(12),
            name: "FirstOrder".into(),
            std_error: Some(0.25),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("stochdag_cache_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn keys_are_stable_and_discriminating() {
        let k = cell_key(42, 0.01, "first-order", 7);
        assert_eq!(k, cell_key(42, 0.01, "first-order", 7));
        assert_eq!(k.len(), 32);
        assert_ne!(k, cell_key(43, 0.01, "first-order", 7));
        assert_ne!(k, cell_key(42, 0.011, "first-order", 7));
        assert_ne!(k, cell_key(42, 0.01, "first-order-naive", 7));
        assert_ne!(k, cell_key(42, 0.01, "first-order", 8));
    }

    #[test]
    fn memory_round_trip_counts_hits() {
        let c = ResultCache::in_memory();
        let key = cell_key(1, 0.1, "sculli", 0);
        assert!(c.lookup(&key).is_none());
        c.store(&key, &sample(5.0));
        let got = c.lookup(&key).expect("hit");
        assert_eq!(got.value, 5.0);
        assert_eq!(got.name, "FirstOrder");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn disk_round_trip_survives_new_instance() {
        let dir = tmp_dir("disk");
        let key = cell_key(2, 0.2, "corlca", 3);
        {
            let c = ResultCache::on_disk(&dir);
            c.store(&key, &sample(7.5));
        }
        let c2 = ResultCache::on_disk(&dir);
        let got = c2.lookup(&key).expect("disk hit");
        assert_eq!(got.value, 7.5);
        assert_eq!(got.std_error, Some(0.25));
        assert_eq!(got.elapsed, Duration::from_millis(12));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_tiered_reports_the_serving_tier() {
        let dir = tmp_dir("tiered");
        let key = cell_key(4, 0.4, "first-order", 9);
        let c = ResultCache::on_disk(&dir);
        assert!(c.lookup_tiered(&key).is_none());
        c.store(&key, &sample(6.0));
        let (_, tier) = c.lookup_tiered(&key).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        // A fresh instance has a cold memory tier: first hit is disk,
        // the promotion makes the second hit memory.
        let fresh = ResultCache::on_disk(&dir);
        let (_, tier) = fresh.lookup_tiered(&key).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        let (_, tier) = fresh.lookup_tiered(&key).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(fresh.hits(), 2);
        assert_eq!(CacheTier::parse("disk"), Some(CacheTier::Disk));
        assert_eq!(
            CacheTier::parse(CacheTier::Memory.as_str()),
            Some(CacheTier::Memory)
        );
        assert_eq!(CacheTier::parse("l2"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_sees_memory_and_disk_without_counting() {
        let dir = tmp_dir("probe");
        let key = cell_key(9, 0.5, "sculli", 2);
        let c = ResultCache::on_disk(&dir);
        assert!(!c.probe(&key));
        c.store(&key, &sample(2.0));
        assert!(c.probe(&key), "memory tier visible");
        let fresh = ResultCache::on_disk(&dir);
        assert!(fresh.probe(&key), "disk tier visible");
        assert_eq!(fresh.hits() + fresh.misses(), 0, "probe never counts");
        let none = ResultCache::in_memory();
        assert!(!none.probe(&key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn backdate(dir: &std::path::Path, key: &str, secs_ago: u64) {
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        let when = std::time::SystemTime::now() - Duration::from_secs(secs_ago);
        std::fs::File::options()
            .append(true)
            .open(&path)
            .unwrap()
            .set_times(super::FileTimes::new().set_modified(when))
            .unwrap();
    }

    fn on_disk_file(dir: &std::path::Path, key: &str) -> bool {
        dir.join(&key[..2]).join(format!("{key}.json")).is_file()
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = tmp_dir("gc_lru");
        let c = ResultCache::on_disk(&dir);
        let keys: Vec<String> = (0..3).map(|i| cell_key(i, 0.1, "first-order", 0)).collect();
        for (i, k) in keys.iter().enumerate() {
            c.store(k, &sample(i as f64));
        }
        // Recency order (oldest -> newest): keys[1], keys[0], keys[2].
        backdate(&dir, &keys[1], 300);
        backdate(&dir, &keys[0], 200);
        backdate(&dir, &keys[2], 100);
        let entry_len = dir
            .join(&keys[0][..2])
            .join(format!("{}.json", keys[0]))
            .metadata()
            .unwrap()
            .len();
        // Budget for exactly two entries: the oldest (keys[1]) must go.
        let stats = c.gc_disk(2 * entry_len + entry_len / 2).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert_eq!(stats.kept_files, 2);
        assert!(stats.kept_bytes <= 2 * entry_len + entry_len / 2);
        assert!(!on_disk_file(&dir, &keys[1]), "LRU entry evicted");
        assert!(on_disk_file(&dir, &keys[0]));
        assert!(on_disk_file(&dir, &keys[2]));
        // Budget 0 clears the rest.
        let stats = c.gc_disk(0).unwrap();
        assert_eq!(stats.evicted_files, 2);
        assert_eq!(stats.kept_files, 0);
        assert_eq!(stats.kept_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_refresh_recency() {
        let dir = tmp_dir("gc_touch");
        let k_old = cell_key(1, 0.1, "sculli", 0);
        let k_new = cell_key(2, 0.1, "sculli", 0);
        {
            let c = ResultCache::on_disk(&dir);
            c.store(&k_old, &sample(1.0));
            c.store(&k_new, &sample(2.0));
        }
        backdate(&dir, &k_old, 500);
        backdate(&dir, &k_new, 100);
        // A fresh instance reads k_old from disk, touching its mtime.
        let c = ResultCache::on_disk(&dir);
        assert!(c.lookup(&k_old).is_some());
        let entry_len = dir
            .join(&k_old[..2])
            .join(format!("{k_old}.json"))
            .metadata()
            .unwrap()
            .len();
        let stats = c.gc_disk(entry_len + entry_len / 2).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert!(
            on_disk_file(&dir, &k_old),
            "recently-read entry must survive"
        );
        assert!(!on_disk_file(&dir, &k_new), "stale entry evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_stray_tmp_files_and_tolerates_no_disk() {
        let dir = tmp_dir("gc_tmp");
        let c = ResultCache::on_disk(&dir);
        let key = cell_key(5, 0.2, "corlca", 1);
        c.store(&key, &sample(3.0));
        let tmp = dir.join(&key[..2]).join(format!("{key}.json.tmp.999.0"));
        std::fs::write(&tmp, "partial").unwrap();
        // A fresh tmp could be a concurrent writer's in-flight payload:
        // GC must leave it alone.
        let stats = c.gc_disk(u64::MAX).unwrap();
        assert_eq!(stats.evicted_files, 0, "in-flight tmp survives");
        assert!(tmp.exists());
        // A future mtime (clock stepped backward since the write) must
        // also read as in-flight, not stale.
        let future = std::time::SystemTime::now() + Duration::from_secs(300);
        std::fs::File::options()
            .append(true)
            .open(&tmp)
            .unwrap()
            .set_times(FileTimes::new().set_modified(future))
            .unwrap();
        let stats = c.gc_disk(u64::MAX).unwrap();
        assert_eq!(stats.evicted_files, 0, "future-dated tmp survives");
        assert!(tmp.exists());
        // Once older than the grace period it is an interrupted write's
        // leftover and gets reclaimed.
        let stale = std::time::SystemTime::now() - Duration::from_secs(300);
        std::fs::File::options()
            .append(true)
            .open(&tmp)
            .unwrap()
            .set_times(FileTimes::new().set_modified(stale))
            .unwrap();
        let stats = c.gc_disk(u64::MAX).unwrap();
        assert_eq!(stats.evicted_files, 1, "only the stale tmp is removed");
        assert!(!tmp.exists());
        assert!(on_disk_file(&dir, &key));
        assert_eq!(
            ResultCache::in_memory().gc_disk(0).unwrap(),
            CacheGcStats::default()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_reads() {
        // Two ResultCache instances over one directory model two worker
        // processes sharing a disk tier (each process has its own
        // memory tier). Writers hammer an overlapping key set while a
        // reader polls with fresh instances (cold memory tier, so every
        // hit is a disk read) and a GC pass prunes mid-campaign. A read
        // must only ever observe a complete payload or nothing.
        let dir = tmp_dir("concurrent");
        let keys: Vec<String> = (0..24u64)
            .map(|i| cell_key(i as u128, 0.1, "first-order", i))
            .collect();
        let expected = |i: usize| 100.0 + i as f64;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let dir = dir.clone();
                let keys = keys.clone();
                scope.spawn(move || {
                    let c = ResultCache::on_disk(&dir);
                    for round in 0..6 {
                        for (i, k) in keys.iter().enumerate() {
                            c.store(k, &sample(expected(i)));
                            if round % 2 == 0 {
                                c.lookup(k);
                            }
                        }
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..40 {
                    let fresh = ResultCache::on_disk(&dir);
                    for (i, k) in keys.iter().enumerate() {
                        if let Some(est) = fresh.lookup(k) {
                            assert_eq!(est.value, expected(i), "torn or mixed payload for {k}");
                        }
                    }
                }
            });
            scope.spawn(|| {
                // Mid-campaign GC with a byte budget must tolerate
                // concurrent writers (files appearing/vanishing) and
                // must never surface an error.
                let c = ResultCache::on_disk(&dir);
                for _ in 0..10 {
                    c.gc_disk(4096).expect("gc during writes");
                    std::thread::yield_now();
                }
            });
        });
        // After the dust settles, every key must be durable and intact.
        let settled = ResultCache::on_disk(&dir);
        for (i, k) in keys.iter().enumerate() {
            settled.store(k, &sample(expected(i)));
        }
        let fresh = ResultCache::on_disk(&dir);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(fresh.lookup(k).expect("durable entry").value, expected(i));
        }
        // No stray temp files survive a final GC pass.
        let stats = fresh.gc_disk(u64::MAX).unwrap();
        assert_eq!(stats.kept_files, keys.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let key = cell_key(3, 0.3, "dodin:128", 1);
        let c = ResultCache::on_disk(&dir);
        c.store(&key, &sample(1.0));
        // Corrupt the file and wipe memory by using a fresh instance.
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        std::fs::write(&path, "{not json").unwrap();
        let c2 = ResultCache::on_disk(&dir);
        assert!(c2.lookup(&key).is_none());
        assert_eq!(c2.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
