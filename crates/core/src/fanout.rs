//! Indexed fan-out over a work list: the one place the pipeline spawns.
//!
//! `check` seeds, `explore` rounds, replay sections and the daemon's
//! submissions share one parallelism pattern: indexed slots keep the
//! merged output in input order regardless of which worker finishes
//! first, so results are byte-identical for every `--jobs` value.
//!
//! The list is cut into at most `jobs` chunks. A single chunk (`jobs ==
//! 1`, or too few items to fill a second) runs on the calling thread;
//! scoped workers are spawned only for two chunks or more. A worker is
//! not free when the work is short: besides the spawn and the join it
//! brings its own allocator arena — resident memory a daemon handler
//! (itself one of many threads) would pay on every submission, page
//! faults and frees from a foreign thread that `explore` would pay twice
//! per round of eight schedules. What running inline gives up is one
//! side channel: a panic inside `work` at `--jobs 1` (an injected
//! `--fail-seed`) is reported by the panic hook as `thread 'main'` on
//! stderr where a worker's reads `thread '<unnamed>'`. Stdout, exit codes
//! and reports do not depend on it: every caller catches the unwind or
//! returns a `Result` from `work`.

/// The machine's available parallelism: the default `jobs` value of every
/// fan-out (`check` seeds, `explore` rounds, replay sections).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `work` over every item of `items`, `jobs` ways in parallel,
/// returning one slot per item in input order. `work` receives
/// `(index, &item)`. A slot is only `None` if a worker died without
/// writing it — callers supply a fallback instead of panicking.
pub fn fan_out_indexed<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    work: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Option<R>> {
    fan_out_indexed_with(items, jobs, || (), |(), i, item| work(i, item))
}

/// [`fan_out_indexed`] with per-worker scratch state: each worker (the
/// caller, when there is one chunk) calls `init` once and threads the
/// resulting state through every item of its chunk. The v2 frame decoder
/// uses this to reuse one decompression buffer and one event batch per
/// worker instead of allocating per frame.
///
/// A panic in `work` propagates to the caller on both arms (as itself
/// from the calling thread, as the scope's "a scoped thread panicked"
/// once every worker has been joined).
pub fn fan_out_indexed_with<T: Sync, S, R: Send>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<Option<R>> {
    let jobs = jobs.max(1).min(items.len().max(1));
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(jobs).max(1);
    let run_chunk = |base: usize, slot_chunk: &mut [Option<R>], item_chunk: &[T]| {
        let mut state = init();
        for (off, (slot, item)) in slot_chunk.iter_mut().zip(item_chunk).enumerate() {
            *slot = Some(work(&mut state, base + off, item));
        }
    };
    if items.len() <= chunk {
        run_chunk(0, &mut slots, items);
        return slots;
    }
    let run_chunk = &run_chunk;
    std::thread::scope(|scope| {
        for (chunk_i, (slot_chunk, item_chunk)) in
            slots.chunks_mut(chunk).zip(items.chunks(chunk)).enumerate()
        {
            scope.spawn(move || run_chunk(chunk_i * chunk, slot_chunk, item_chunk));
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 4, 16, 100] {
            let slots = fan_out_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            let got: Vec<usize> = slots.into_iter().map(|s| s.unwrap()).collect();
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_no_slots() {
        let slots = fan_out_indexed(&[] as &[u64], 4, |_, &x| x);
        assert!(slots.is_empty());
    }

    /// The thread each of `n` items ran on.
    fn ran_on(n: usize, jobs: usize) -> Vec<std::thread::ThreadId> {
        fan_out_indexed(&vec![(); n], jobs, |_, ()| std::thread::current().id())
            .into_iter()
            .map(|s| s.unwrap())
            .collect()
    }

    #[test]
    fn one_chunk_runs_on_the_caller_and_two_chunks_on_workers() {
        let me = std::thread::current().id();
        assert!(ran_on(5, 1).iter().all(|t| *t == me));
        // Fewer items than workers can still leave a single chunk.
        assert!(ran_on(1, 4).iter().all(|t| *t == me));
        // Five items two ways: chunks of three and two, a worker each.
        let two = ran_on(5, 2);
        assert!(two.iter().all(|t| *t != me));
        assert_eq!(two[0], two[2]);
        assert_eq!(two[3], two[4]);
        assert_ne!(two[0], two[3]);
    }

    #[test]
    fn init_runs_once_per_worker_and_its_state_follows_the_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for (jobs, workers, want) in [(1, 1, [1, 2, 3, 4, 5]), (2, 2, [1, 2, 3, 1, 2])] {
            let inits = AtomicUsize::new(0);
            let slots = fan_out_indexed_with(
                &[10usize, 20, 30, 40, 50],
                jobs,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0
                },
                |seen, i, &item| {
                    *seen += 1;
                    (i, item, *seen)
                },
            );
            assert_eq!(inits.load(Ordering::Relaxed), workers, "jobs {jobs}");
            for (i, slot) in slots.into_iter().enumerate() {
                assert_eq!(slot, Some((i, (i + 1) * 10, want[i])), "jobs {jobs}");
            }
        }
    }

    #[test]
    fn a_panic_in_work_reaches_the_caller_on_both_arms() {
        let message = |jobs: usize| {
            let payload = std::panic::catch_unwind(|| {
                fan_out_indexed(&[0, 1, 2, 3], jobs, |i, _| assert_ne!(i, 1, "item one"))
            })
            .expect_err("the panic must not be swallowed");
            match payload.downcast::<String>() {
                Ok(text) => *text,
                Err(payload) => payload.downcast::<&str>().unwrap().to_string(),
            }
        };
        // Inline it is the panic itself; from a worker it is the scope's
        // report, raised once every worker has been joined.
        assert!(message(1).contains("item one"), "{}", message(1));
        assert_eq!(message(2), "a scoped thread panicked");
    }
}
