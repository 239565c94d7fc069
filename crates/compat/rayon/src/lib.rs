//! Offline stand-in for the `rayon` crate.
//!
//! Provides the data-parallel surface this workspace uses — `par_iter()` on slices and
//! vectors followed by `map(...).collect()` or `for_each(...)` — executed on
//! `std::thread::scope` worker threads, one contiguous chunk per available core, with the
//! output order matching the input order exactly (the engine's tests require sweeps to be
//! deterministic and ordered).
//!
//! Unlike real rayon there is no global work-stealing pool: each `collect` spawns its own
//! scoped threads.  Nested parallelism therefore oversubscribes rather than deadlocks,
//! which is acceptable for the workloads here (outer loops dominate).

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Re-exports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// The number of threads a parallel call spreads its work over: the host's available
/// parallelism (1 when it cannot be read), as `rayon::current_num_threads` reports its
/// pool's size.  Read once per process, because `std::thread::available_parallelism`
/// re-reads the cgroup files on every call.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

fn worker_count(items: usize) -> usize {
    current_num_threads().min(items).max(1)
}

/// Runs `f` over `items` in parallel, preserving order.
fn parallel_map<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync>(items: &'a [T], f: &F) -> Vec<U> {
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let mut results: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
    });
    results.into_iter().flatten().collect()
}

/// A parallel iterator over borrowed slice elements.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Applies `f` to every element in parallel.
    pub fn map<U, F: Fn(&'a T) -> U>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let _ = parallel_map(self.items, &|t| f(t));
    }
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<'a, T, F> {
    /// Executes the map in parallel and collects the results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// `par_iter()` for by-reference collections, mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;

    /// A parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Owned parallel iteration, mirroring `rayon::iter::IntoParallelIterator`.
///
/// Implemented by collecting into a vector first; the workspace only uses it for small
/// work-unit lists where the extra allocation is irrelevant.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;

    /// Consumes `self` into an owned parallel iterator.
    fn into_par_iter(self) -> OwnedParIter<Self::Item>;
}

/// An owning parallel iterator.
pub struct OwnedParIter<T> {
    items: Vec<T>,
}

impl<T: Send + Sync> OwnedParIter<T> {
    /// Applies `f` to every element in parallel, preserving order.
    pub fn map<U, F: Fn(T) -> U>(self, f: F) -> OwnedParMap<T, F> {
        OwnedParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped owning parallel iterator.
pub struct OwnedParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send + Sync, U: Send, F: Fn(T) -> U + Sync> OwnedParMap<T, F> {
    /// Executes the map in parallel and collects the results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let f = &self.f;
        let mut slots: Vec<Option<T>> = self.items.into_iter().map(Some).collect();
        let owned: Vec<U> = {
            let refs: Vec<&mut Option<T>> = slots.iter_mut().collect();
            let workers = worker_count(refs.len());
            if workers <= 1 {
                refs.into_iter()
                    .map(|slot| f(slot.take().expect("slot filled")))
                    .collect()
            } else {
                let chunk_len = refs.len().div_ceil(workers);
                let mut results: Vec<Vec<U>> = Vec::new();
                let mut chunks: Vec<Vec<&mut Option<T>>> = Vec::new();
                let mut it = refs.into_iter();
                loop {
                    let chunk: Vec<&mut Option<T>> = it.by_ref().take(chunk_len).collect();
                    if chunk.is_empty() {
                        break;
                    }
                    chunks.push(chunk);
                }
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chunks
                        .into_iter()
                        .map(|chunk| {
                            scope.spawn(move || {
                                chunk
                                    .into_iter()
                                    .map(|slot| f(slot.take().expect("slot filled")))
                                    .collect::<Vec<U>>()
                            })
                        })
                        .collect();
                    results = handles
                        .into_iter()
                        .map(|h| h.join().expect("parallel worker panicked"))
                        .collect();
                });
                results.into_iter().flatten().collect()
            }
        };
        owned.into_iter().collect()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> OwnedParIter<T> {
        OwnedParIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let squares: Vec<u64> = xs.par_iter().map(|x| x * x).collect();
        assert_eq!(squares, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn runs_closures_with_captured_state() {
        let offset = 7u64;
        let xs = [1u64, 2, 3, 4, 5];
        let ys: Vec<u64> = xs.par_iter().map(|x| x + offset).collect();
        assert_eq!(ys, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn owned_into_par_iter() {
        let xs: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        let lens: Vec<usize> = xs.clone().into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, xs.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        let xs: Vec<u64> = (1..=100).collect();
        xs.par_iter().for_each(|x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn thread_count_is_the_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(super::current_num_threads(), available);
        assert_eq!(
            super::current_num_threads(),
            available,
            "the second read agrees"
        );
    }

    #[test]
    fn empty_input() {
        let xs: Vec<u64> = Vec::new();
        let ys: Vec<u64> = xs.par_iter().map(|x| x + 1).collect();
        assert!(ys.is_empty());
    }
}
