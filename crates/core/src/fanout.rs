//! Scoped-thread fan-out over an indexed work list.
//!
//! The seed pipeline and the v2 trace decoder share one parallelism
//! pattern: indexed slots keep the merged output in input order
//! regardless of which worker finishes first, so results are
//! byte-identical for every `--jobs` value. Even `jobs == 1` goes
//! through a spawned scoped thread: that keeps side channels (the panic
//! hook's thread name on stderr) identical between the serial and
//! parallel paths.

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

/// [`fan_out_indexed`] with per-worker scratch state: each spawned worker
/// calls `init` once and threads the resulting state through every item
/// of its chunk. The v2 frame decoder uses this to reuse one
/// decompression buffer and one event batch per worker instead of
/// allocating per frame.
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
    let (init, work) = (&init, &work);
    std::thread::scope(|scope| {
        for (chunk_i, (slot_chunk, item_chunk)) in
            slots.chunks_mut(chunk).zip(items.chunks(chunk)).enumerate()
        {
            let base = chunk_i * chunk;
            scope.spawn(move || {
                let mut state = init();
                for (off, (slot, item)) in slot_chunk.iter_mut().zip(item_chunk).enumerate() {
                    *slot = Some(work(&mut state, base + off, item));
                }
            });
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
}
