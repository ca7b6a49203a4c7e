//! Offline stand-in for `crossbeam`.
//!
//! The workspace only uses `crossbeam::thread::scope` / `Scope::spawn` /
//! `ScopedJoinHandle::join`, which since Rust 1.63 are expressible directly
//! on `std::thread::scope`. This shim adapts the std API to crossbeam's
//! shape (closures receive a `&Scope` argument; `scope` and `join` return
//! `Result`s). One semantic difference: if a spawned thread panics and its
//! handle is never joined, std re-raises the panic when the scope exits
//! instead of returning `Err` — every caller in this workspace joins all
//! handles and `expect`s the results, so the difference is unobservable
//! here.

#![warn(missing_docs)]

/// Scoped threads adapted from `std::thread::scope`.
pub mod thread {
    use std::any::Any;

    /// Result of joining a (possibly panicked) thread.
    pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

    /// A handle to a scope within which threads can be spawned.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Owns the right to join a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread inside the scope. The closure receives the scope
        /// again so workers can spawn sub-workers, as in crossbeam.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread and returns its result, or the panic
        /// payload if it panicked.
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    /// Creates a scope; all threads spawned within are joined before it
    /// returns. Returns `Ok` with the closure's value (panics propagate as
    /// panics, see module docs).
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_borrow_and_join() {
        let mut data = vec![0u32; 8];
        let result = super::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, slot) in data.iter_mut().enumerate() {
                handles.push(scope.spawn(move |_| {
                    *slot = i as u32 * 2;
                    i
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .sum::<usize>()
        })
        .expect("scope");
        assert_eq!(result, 28);
        assert_eq!(data, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn nested_spawn_through_scope_argument() {
        let total = super::thread::scope(|scope| {
            let h = scope.spawn(|inner| {
                let sub = inner.spawn(|_| 21);
                sub.join().expect("sub") * 2
            });
            h.join().expect("outer")
        })
        .expect("scope");
        assert_eq!(total, 42);
    }
}
