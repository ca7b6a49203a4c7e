//! The workspace's one way to take a `std::sync` lock.
//!
//! A poisoned lock only means some other thread panicked while it held
//! the guard. Propagating that panic would turn one crashed worker into
//! a cascade through every thread serving the store, a network server's
//! whole worker pool included. Every lock in the workspace guards state
//! a panicking holder cannot leave unsound: checksum and health tables
//! whose worst torn update is a spurious bad-sector record (a read
//! reconstructs the sector from parity, a scrub clears the record),
//! journal bookkeeping whose file tail replay already tolerates,
//! counters, caches, connection tables and trace rings. So these
//! helpers adopt the data on poison and hand back std's own guards —
//! a `Condvar` waits on them as before.
//!
//! The workspace `clippy.toml` lists `Mutex::lock`, `RwLock::read` and
//! `RwLock::write` under `disallowed-methods`, so this module is the
//! only place that calls them. A poison-recovering guard has no
//! `Result` left to unwrap:
//!
//! ```compile_fail,E0599
//! use std::sync::Mutex;
//! let m = Mutex::new(0u64);
//! let _ = stair_obs::sync::lock(&m).unwrap();
//! ```
//!
//! ```compile_fail,E0599
//! use std::sync::RwLock;
//! let l = RwLock::new(0u64);
//! let _ = stair_obs::sync::read(&l).expect("poisoned");
//! ```
//!
//! ```compile_fail,E0599
//! use std::sync::Mutex;
//! let m = Mutex::new(0u64);
//! let _ = stair_obs::sync::lock(&m).unwrap_or_else(|_| panic!("still panics"));
//! ```

// The one home of the calls the workspace `clippy.toml` disallows.
#![allow(clippy::disallowed_methods)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, adopting the data if a panicking holder poisoned it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, adopting the data if a panicking writer poisoned it.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, adopting the data if a panicking writer poisoned it.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_still_hand_back_their_data() {
        let m = Mutex::new(7u64);
        let l = RwLock::new(vec![1u8, 2]);
        std::thread::scope(|s| {
            let poisoned = s
                .spawn(|| {
                    let _m = lock(&m);
                    let _l = write(&l);
                    panic!("poison both locks");
                })
                .join();
            assert!(poisoned.is_err());
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
        assert_eq!(*read(&l), [1, 2]);
        write(&l).push(3);
        assert_eq!(*read(&l), [1, 2, 3]);
    }
}
