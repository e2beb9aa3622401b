//! Offline stand-in for `rayon`.
//!
//! Provides the parallel-iterator surface the workspace uses —
//! `into_par_iter` on integer ranges and slices/vectors, `map`,
//! `map_init`, `collect`, `reduce`, `for_each` — executed on scoped
//! `std::thread` workers that pull fixed-size chunks from a shared
//! atomic counter (dynamic scheduling, so uneven work items
//! load-balance like rayon's work stealing).
//!
//! Results are always assembled **in input order** and chunk partials
//! are combined sequentially in chunk order, so `collect` and `reduce`
//! are deterministic regardless of thread interleaving — the property
//! the Monte-Carlo and scheduling statistics rely on.
//!
//! [`ThreadPoolBuilder::build`] and [`ThreadPool::install`] mirror
//! rayon's scoped pools as a worker cap: inside `install`, every
//! parallel job of the calling thread, and of the workers those jobs
//! spawn, uses at most the pool's thread count. The cap belongs to the
//! threads under `install`, so capped and uncapped callers can run side
//! by side in one process (the sweep engine's per-campaign `--jobs`);
//! because results are order-deterministic, no cap changes any value.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

thread_local! {
    /// This thread's worker cap from [`ThreadPool::install`]; `0` = none.
    static THREAD_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Error type of [`ThreadPoolBuilder::build`], mirroring
/// `rayon::ThreadPoolBuildError`. The shim never actually fails, but
/// callers written against real rayon expect a `Result`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool configuration failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Builder with the default configuration (no cap).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Cap the number of worker threads; `0` means "use all cores".
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A worker cap, mirroring `rayon::ThreadPool`. Unlike upstream, it
/// keeps no threads: [`install`](ThreadPool::install) runs `op` on the
/// calling thread, and many threads may share one pool.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` under this pool's cap; the calling thread's previous
    /// cap is back when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_CAP.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(THREAD_CAP.with(|c| c.replace(self.num_threads)));
        op()
    }
}

/// Number of threads a saturating parallel job of this thread would
/// use right now, mirroring `rayon::current_num_threads`. The core
/// count is probed once per process, as rayon sizes its pool once:
/// every `available_parallelism` call re-reads the affinity mask and
/// the cgroup quota files.
pub fn current_num_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let hw = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    match THREAD_CAP.with(Cell::get) {
        0 => hw,
        cap => hw.min(cap),
    }
}

/// Number of worker threads for a job of `len` items.
fn worker_count(len: usize) -> usize {
    current_num_threads().min(len.max(1))
}

/// Run `produce(chunk_range)` over dynamic chunks of `0..len` on a
/// scoped thread pool; returns the per-chunk outputs in chunk order.
fn run_chunks<T, F>(len: usize, produce: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let workers = worker_count(len);
    if workers <= 1 {
        return vec![produce(0..len)];
    }
    // ~4 chunks per worker balances stealing granularity vs overhead.
    let chunk_size = len.div_ceil(workers * 4).max(1);
    let n_chunks = len.div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n_chunks));
    // Workers inherit the caller's cap, as a pool's own threads would.
    let cap = THREAD_CAP.with(Cell::get);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                THREAD_CAP.with(|c| c.set(cap));
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk_size;
                    let hi = (lo + chunk_size).min(len);
                    let part = produce(lo..hi);
                    out.lock().expect("worker panicked").push((c, part));
                }
            });
        }
    });
    let mut parts = out.into_inner().expect("worker panicked");
    parts.sort_by_key(|&(c, _)| c);
    parts.into_iter().map(|(_, t)| t).collect()
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// The iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type produced (a reference).
    type Item: Send;
    /// The iterator type.
    type Iter;
    /// Convert.
    fn par_iter(&'a self) -> Self::Iter;
}

// ---------------------------------------------------------------------
// Sources: anything with O(1) indexed access.
// ---------------------------------------------------------------------

/// An indexable parallel source.
pub trait ParSource: Sync {
    /// Item type.
    type Item: Send;
    /// Number of items.
    fn len(&self) -> usize;
    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Item at position `i`.
    fn get(&self, i: usize) -> Self::Item;
}

/// Parallel iterator over an indexed source.
pub struct ParIter<S> {
    source: S,
}

macro_rules! impl_range_source {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = ParIter<Range<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                ParIter { source: self }
            }
        }
        impl ParSource for Range<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                (self.end.saturating_sub(self.start)) as usize
            }
            fn get(&self, i: usize) -> $t {
                self.start + i as $t
            }
        }
    )*};
}

impl_range_source!(u64, u32, usize);

impl<T: Send + Sync + Clone> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<Vec<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter { source: self }
    }
}

impl<T: Send + Sync + Clone> ParSource for Vec<T> {
    type Item = T;
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn get(&self, i: usize) -> T {
        self[i].clone()
    }
}

/// Borrowing source over a slice.
pub struct SliceSource<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync + Send + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            source: SliceSource { items: self },
        }
    }
}

impl<'a, T: Sync + Send + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            source: SliceSource { items: self },
        }
    }
}

impl<'a, T: Sync + Send> ParSource for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn get(&self, i: usize) -> &'a T {
        &self.items[i]
    }
}

// ---------------------------------------------------------------------
// Adapters.
// ---------------------------------------------------------------------

/// `map` adapter.
pub struct ParMap<S, F> {
    source: S,
    f: F,
}

/// `map_init` adapter (per-chunk scratch state).
pub struct ParMapInit<S, I, F> {
    source: S,
    init: I,
    f: F,
}

impl<S: ParSource> ParIter<S> {
    /// Map each item through `f`.
    pub fn map<T, F>(self, f: F) -> ParMap<S, F>
    where
        T: Send,
        F: Fn(S::Item) -> T + Sync,
    {
        ParMap {
            source: self.source,
            f,
        }
    }

    /// Map with a per-worker scratch value created by `init`.
    pub fn map_init<St, T, I, F>(self, init: I, f: F) -> ParMapInit<S, I, F>
    where
        T: Send,
        I: Fn() -> St + Sync,
        F: Fn(&mut St, S::Item) -> T + Sync,
    {
        ParMapInit {
            source: self.source,
            init,
            f,
        }
    }

    /// Run `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync,
    {
        let source = &self.source;
        run_chunks(source.len(), |range| {
            for i in range {
                f(source.get(i));
            }
        });
    }

    /// Collect items in input order.
    pub fn collect<C: FromOrderedParallel<S::Item>>(self) -> C {
        let source = &self.source;
        let parts = run_chunks(source.len(), |range| {
            range.map(|i| source.get(i)).collect::<Vec<_>>()
        });
        C::from_ordered_chunks(parts)
    }
}

impl<S, T, F> ParMap<S, F>
where
    S: ParSource,
    T: Send,
    F: Fn(S::Item) -> T + Sync,
{
    /// Collect mapped items in input order.
    pub fn collect<C: FromOrderedParallel<T>>(self) -> C {
        let (source, f) = (&self.source, &self.f);
        let parts = run_chunks(source.len(), |range| {
            range.map(|i| f(source.get(i))).collect::<Vec<_>>()
        });
        C::from_ordered_chunks(parts)
    }

    /// Reduce mapped items with `op` starting from `identity`.
    ///
    /// Chunk partials are combined sequentially in chunk order, so the
    /// result is deterministic for a fixed machine.
    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> T
    where
        Id: Fn() -> T + Sync,
        Op: Fn(T, T) -> T + Sync,
    {
        let (source, f) = (&self.source, &self.f);
        let parts = run_chunks(source.len(), |range| {
            let mut acc = identity();
            for i in range {
                acc = op(acc, f(source.get(i)));
            }
            acc
        });
        parts.into_iter().fold(identity(), &op)
    }

    /// Sum mapped items (chunk partials combined in order).
    pub fn sum<Out>(self) -> Out
    where
        T: Into<Out>,
        Out: std::iter::Sum<T> + std::iter::Sum<Out> + Send,
    {
        let (source, f) = (&self.source, &self.f);
        let parts = run_chunks(source.len(), |range| {
            range.map(|i| f(source.get(i))).sum::<Out>()
        });
        parts.into_iter().sum()
    }
}

impl<S, St, T, I, F> ParMapInit<S, I, F>
where
    S: ParSource,
    T: Send,
    I: Fn() -> St + Sync,
    F: Fn(&mut St, S::Item) -> T + Sync,
{
    /// Collect mapped items in input order.
    pub fn collect<C: FromOrderedParallel<T>>(self) -> C {
        let (source, init, f) = (&self.source, &self.init, &self.f);
        let parts = run_chunks(source.len(), |range| {
            let mut state = init();
            range
                .map(|i| f(&mut state, source.get(i)))
                .collect::<Vec<_>>()
        });
        C::from_ordered_chunks(parts)
    }
}

/// Collections assemblable from ordered chunk outputs.
pub trait FromOrderedParallel<T> {
    /// Build from chunk vectors, already in input order.
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Self;
}

impl<T> FromOrderedParallel<T> for Vec<T> {
    fn from_ordered_chunks(chunks: Vec<Vec<T>>) -> Vec<T> {
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for c in chunks {
            out.extend(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 2 * i as u64);
        }
    }

    #[test]
    fn reduce_matches_sequential() {
        let par = (0..1_000u64)
            .into_par_iter()
            .map(|i| (i as f64, 1.0))
            .reduce(|| (0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!(par.1, 1000.0);
        assert_eq!(par.0, (0..1000).sum::<u64>() as f64);
    }

    #[test]
    fn map_init_reuses_state_safely() {
        let v: Vec<usize> = (0..5_000u64)
            .into_par_iter()
            .map_init(Vec::<u8>::new, |scratch, i| {
                scratch.clear();
                scratch.extend_from_slice(&i.to_le_bytes());
                scratch.len()
            })
            .collect();
        assert!(v.iter().all(|&l| l == 8));
    }

    #[test]
    fn par_iter_over_slice() {
        let data = vec![1.0f64, 2.0, 3.0];
        let doubled: Vec<f64> = data.par_iter().map(|&x| x * 2.0).collect();
        assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || -> Vec<u64> { (0..2_000u64).into_par_iter().map(|i| i % 7).collect() };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_input() {
        let v: Vec<u64> = (0..0u64).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn install_caps_its_own_thread_only_and_restores() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(1).build();
        let uncapped = crate::current_num_threads();
        let inside = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                inside.wait();
                assert_eq!(crate::current_num_threads(), uncapped, "other threads");
                inside.wait();
            });
            pool.unwrap().install(|| {
                inside.wait();
                assert_eq!(crate::current_num_threads(), 1);
                let v: Vec<u64> = (0..100u64).into_par_iter().map(|i| i + 1).collect();
                assert_eq!(v[99], 100);
                inside.wait();
            });
        });
        assert_eq!(crate::current_num_threads(), uncapped);
    }
}
