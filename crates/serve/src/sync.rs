//! Poison-recovery lock helpers.
//!
//! std's `Mutex`/`RwLock` poison when a thread panics while holding a
//! guard. In this crate a poisoned entry is an expected, *recoverable*
//! event: the registry, still holding the salvaged guard, replaces the
//! entry's cache from its registered template and clears the poison
//! flag, so salvaging the guard is always sound — the data behind it is
//! replaced wholesale, never trusted as-is.
//!
//! Library code must route all locking through these helpers; the
//! `cargo xtask lint` naked-lock rule bans `.lock().unwrap()` et al. so
//! a panic can never cascade into wedging every waiter.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, salvaging the guard if a previous holder panicked.
///
/// The caller owns the recovery policy: either the protected value is
/// panic-safe by construction, or the caller replaces it under the
/// returned guard and clears the poison (see `NetEntry::lock_cache`).
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, salvaging the guard on poison.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, salvaging the guard on poison.
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recover_salvages_a_poisoned_mutex() {
        let m = Mutex::new(41);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
        *lock_recover(&m) = 42;
        assert_eq!(*lock_recover(&m), 42);
    }

    #[test]
    fn rwlock_helpers_work_on_healthy_locks() {
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(read_recover(&l).len(), 3);
        write_recover(&l).push(4);
        assert_eq!(read_recover(&l).len(), 4);
    }
}
