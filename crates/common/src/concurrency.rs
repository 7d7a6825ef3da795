//! Concurrency primitives: the one thread fan-out and contention-free
//! counters for the serving hot path.
//!
//! [`par_map`] is the only place the workspace splits a batch of independent
//! items across OS threads (the serving pool's long-lived workers are a
//! queue, not a batch).  Training, scenario compilation, batch optimization
//! and the fleet's shard rounds all go through it, so the guarantee they
//! share — results in item order, bit-identical on 1 thread or N — is kept
//! here once.
//!
//! The serving tier counts things on every cost-model invocation: cache
//! hits/misses, model invocations, routing outcomes.  A single shared
//! `AtomicU64` turns each of those counts into a read-modify-write on one
//! cacheline that every serving thread fights over — enough, at millions of
//! predictions per second, to flatten multicore scaling on its own.
//! [`StripedCounter`] spreads the traffic across cacheline-padded stripes:
//! each thread picks a home stripe once (round-robin over threads) and
//! increments only that stripe, so concurrent counting stays core-local;
//! reads sum the stripes.  Totals are exact whenever the counting threads
//! have quiesced (joined or otherwise happens-before the read), which is how
//! every report and test in this repository reads them.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Map `f` over `items` on up to `threads` scoped OS threads (`0` = every
/// core) and return the results in item order.
///
/// The worker count is `min(threads, items.len())`; item `i` goes to worker
/// `i % workers` (round-robin), and each worker threads one `init()` state
/// through all of its items in order.  With one worker the map runs inline
/// on the calling thread and spawns nothing.  A panic in `f` resumes on the
/// caller with its original payload.  When `f` is a pure function of its
/// item (and of a state that does not change what it returns), the output
/// is the same for every thread count.
pub fn par_map<T: Send, S, R: Send>(
    items: Vec<T>,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let mut buckets: Vec<Vec<T>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push(item);
    }
    let (init, f) = (&init, &f);
    let mut done: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    let mut state = init();
                    bucket
                        .into_iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .map(Vec::into_iter)
            .collect()
    });
    (0..n)
        .map(|i| {
            done[i % workers]
                .next()
                .expect("worker returned every item")
        })
        .collect()
}

/// `threads`, with `0` resolved to the machine's available parallelism.
fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One counter stripe, padded to a cacheline so neighbouring stripes never
/// share one (64 bytes covers every mainstream x86/ARM configuration).
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Number of stripes per counter: enough that threads assigned round-robin
/// rarely collide at realistic core counts, small enough that summing stays
/// trivial.  A power of two so the home-stripe pick is a mask.
const STRIPES: usize = 16;

/// Monotonically assigns each OS thread a distinct stripe-selection seed.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's round-robin slot (assigned on first use, then fixed).
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's round-robin slot (assigned on first use, then fixed
/// for the thread's lifetime).  Exposed so other striped structures — the
/// observability trace buffers in [`crate::obs`] — shard by the same
/// assignment as the counter stripes and stay core-local together.
#[inline]
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(s);
        }
        s
    })
}

/// This thread's stripe index.
#[inline]
fn home_stripe() -> usize {
    thread_slot() & (STRIPES - 1)
}

/// A cacheline-striped monotone counter: contention-free increments, exact
/// sums once the incrementing threads have quiesced.
#[derive(Debug)]
pub struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter::new()
    }
}

impl StripedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        StripedCounter {
            stripes: Default::default(),
        }
    }

    /// Add `n` to this thread's home stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[home_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all stripes.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Reset every stripe to zero.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_across_threads() {
        let counter = StripedCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        counter.add(1);
                    }
                });
            }
        });
        assert_eq!(counter.sum(), 80_000);
        counter.reset();
        assert_eq!(counter.sum(), 0);
    }

    #[test]
    fn add_supports_bulk_increments() {
        let counter = StripedCounter::new();
        counter.add(5);
        counter.add(7);
        assert_eq!(counter.sum(), 12);
    }

    #[test]
    fn par_map_keeps_item_order_one_state_per_worker_and_panic_payloads() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let workers = resolve_threads(threads).min(items.len());
            // Each state is a fresh id, so every result names the state (and
            // so the worker) that computed it.
            let next_id = AtomicUsize::new(0);
            let out = par_map(
                items.clone(),
                threads,
                || next_id.fetch_add(1, Ordering::Relaxed),
                |id, x| (*id, x * x + 1),
            );
            assert_eq!(next_id.into_inner(), workers, "threads={threads}");
            let values: Vec<u64> = out.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, expected, "threads={threads}");
            // Round-robin: item i shares a state with exactly the items
            // congruent to i modulo the worker count.
            let mut ids: Vec<usize> = out[..workers].iter().map(|&(id, _)| id).collect();
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, &(id, _))| id == ids[i % workers]));
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), workers, "threads={threads}");
        }

        let empty: Vec<u64> = par_map(Vec::<u64>::new(), 4, || (), |_, x| x);
        assert!(empty.is_empty());

        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                par_map(
                    (0..10).collect(),
                    threads,
                    || (),
                    |_, x: u32| {
                        if x == 7 {
                            std::panic::panic_any(format!("item {x}"));
                        }
                        x
                    },
                )
            })
            .expect_err("the panic reaches the caller");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("item 7"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stripes_are_cacheline_sized() {
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
        assert!(std::mem::size_of::<StripedCounter>() >= STRIPES * 64);
    }
}
