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
/// fan-out (`check` seeds, `explore` rounds, replay sections). Probed once
/// per process (the probe reads cgroup files) and remembered.
pub fn default_jobs() -> usize {
    static JOBS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *JOBS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Run `work` over every item of `items`, `jobs` ways in parallel,
/// returning one slot per item in input order. `work` receives
/// `(index, &item)`. A slot is only `None` if a worker died without
/// writing it — callers supply a fallback instead of panicking.
pub(crate) fn fan_out_indexed<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    work: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Option<R>> {
    fan_out_indexed_with(items, jobs, || (), |(), i, item| work(i, item))
}

/// [`fan_out_indexed`] with per-worker scratch state: each worker (the
/// caller, when there is one chunk) gets a state from `init`, called once
/// per worker, and threads it through every item of its chunk. The v2
/// frame decoder uses this to reuse one decompression buffer and one event
/// batch per worker instead of allocating per frame.
///
/// A panic in `work` propagates to the caller on both arms (as itself
/// from the calling thread, as the scope's "a scoped thread panicked"
/// once every worker has been joined).
pub fn fan_out_indexed_with<T: Sync, S: Send, R: Send>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> S,
    work: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<Option<R>> {
    let chunk = chunk_len(items.len(), jobs);
    let mut workers: Vec<S> = (0..items.len().div_ceil(chunk).max(1))
        .map(|_| init())
        .collect();
    fan_out_indexed_on(items, &mut workers, work)
}

/// Items per chunk when `len` items are cut at most `jobs` ways.
fn chunk_len(len: usize, jobs: usize) -> usize {
    len.div_ceil(jobs.max(1).min(len.max(1))).max(1)
}

/// [`fan_out_indexed_with`] over states the caller keeps: at most
/// `workers.len()` chunks, chunk `i` threading `workers[i]`, so what a
/// worker builds up (`explore`'s recording buffer and analysis session)
/// outlives the call and serves the next one. With no worker, no item
/// runs and every slot is `None`.
pub(crate) fn fan_out_indexed_on<T: Sync, S: Send, R: Send>(
    items: &[T],
    workers: &mut [S],
    work: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<Option<R>> {
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = chunk_len(items.len(), workers.len());
    let run_chunk = |state: &mut S, base: usize, slot_chunk: &mut [Option<R>], item_chunk: &[T]| {
        for (off, (slot, item)) in slot_chunk.iter_mut().zip(item_chunk).enumerate() {
            *slot = Some(work(state, base + off, item));
        }
    };
    match workers {
        [] => {}
        [first, ..] if items.len() <= chunk => run_chunk(first, 0, &mut slots, items),
        _ => {
            let run_chunk = &run_chunk;
            std::thread::scope(|scope| {
                let chunks = slots.chunks_mut(chunk).zip(items.chunks(chunk));
                for (chunk_i, (state, (slot_chunk, item_chunk))) in
                    workers.iter_mut().zip(chunks).enumerate()
                {
                    scope.spawn(move || run_chunk(state, chunk_i * chunk, slot_chunk, item_chunk));
                }
            });
        }
    }
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
    fn kept_states_outlive_the_call_and_serve_at_most_one_chunk_each() {
        for jobs in [1, 2, 3] {
            let mut workers = vec![Vec::new(); jobs];
            for round in 0..2 {
                let slots = fan_out_indexed_on(&[1, 2, 3, 4, 5], &mut workers, |seen, i, &x| {
                    seen.push(x);
                    (i, x)
                });
                let got: Vec<(usize, i32)> = slots.into_iter().map(|s| s.unwrap()).collect();
                assert_eq!(got, (0..5).map(|i| (i, i as i32 + 1)).collect::<Vec<_>>());
                // Chunks of 5, then 3 + 2, then 2 + 2 + 1, each in order,
                // appended to what the same worker saw the round before.
                let chunk = 5usize.div_ceil(jobs);
                for (w, seen) in workers.iter().enumerate() {
                    let mine: Vec<i32> = (1..=5).skip(w * chunk).take(chunk).collect();
                    assert_eq!(seen, &mine.repeat(round + 1), "jobs {jobs} worker {w}");
                }
            }
        }
        let none: Vec<Option<()>> = fan_out_indexed_on(&[1, 2], &mut [] as &mut [()], |_, _, _| ());
        assert_eq!(none, vec![None, None]);
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
