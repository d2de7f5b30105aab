//! Offline shim for the `crossbeam` API subset used in this repository
//! (currently only `queue::SegQueue`). Backed by a mutex-protected
//! `VecDeque`; the trace sink needs MPSC-safety and FIFO order, not
//! lock-freedom.

#![forbid(unsafe_code)]

pub mod queue {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::Mutex;

    /// Unbounded MPMC FIFO queue with `SegQueue`'s interface.
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        /// Create an empty queue.
        pub fn new() -> SegQueue<T> {
            SegQueue {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        fn guard(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Append an element at the back.
        pub fn push(&self, value: T) {
            self.guard().push_back(value);
        }

        /// Remove the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.guard().pop_front()
        }

        /// Number of buffered elements.
        pub fn len(&self) -> usize {
            self.guard().len()
        }

        /// True if no elements are buffered.
        pub fn is_empty(&self) -> bool {
            self.guard().is_empty()
        }

        /// Take every buffered element in one lock acquisition, leaving the
        /// queue empty. (Extension over the upstream API: the upstream
        /// lock-free queue cannot offer an atomic drain, but this shim can,
        /// and the trace sink's end-of-run drain wants one lock + one move
        /// instead of a pop-per-element loop.)
        pub fn take_all(&self) -> VecDeque<T> {
            std::mem::take(&mut *self.guard())
        }
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }

    impl<T> fmt::Debug for SegQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("SegQueue")
                .field("len", &self.len())
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let q = SegQueue::new();
            q.push(1);
            q.push(2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), Some(2));
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }

        #[test]
        fn concurrent_pushes_all_arrive() {
            let q = std::sync::Arc::new(SegQueue::new());
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let q = std::sync::Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..100 {
                            q.push(t * 100 + i);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(q.len(), 400);
        }
    }
}
