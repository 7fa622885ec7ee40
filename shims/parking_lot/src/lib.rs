//! Offline shim for `parking_lot`: `Mutex` and `RwLock` with the
//! parking_lot API (no poisoning: a poisoned std lock is recovered by
//! taking the inner guard), backed by `std::sync`.
//!
//! In debug builds — every `cargo test` — the locks also check the order
//! they are taken in, over what actually runs (see the private `lockdep` module): a lock
//! acquired in an order that closes a cycle with an order seen before,
//! a lock taken again by the thread that holds it, and a [`blocking`]
//! call made while any guard is held all panic, naming the sites on both
//! sides. Release builds compile the recorder out: a [`Guard`] is then a
//! plain newtype of the `std` guard.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[cfg(debug_assertions)]
mod lockdep;

/// Run `f`, a call that may block for as long as another thread pleases
/// (a channel `send` / `recv`, a thread `join`, a backoff `sleep`). In
/// debug builds it first panics if this thread holds any lock guard: a
/// guard held across such a wait stalls every thread that needs the
/// lock, and wedges them when the thread being waited for is one of
/// them.
#[inline]
#[cfg_attr(debug_assertions, track_caller)]
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    lockdep::assert_none_held(std::panic::Location::caller());
    f()
}

/// A `std` guard and, in debug builds, this thread's record that its
/// lock is held, which the guard's drop erases.
pub struct Guard<G> {
    inner: G,
    #[cfg(debug_assertions)]
    _held: lockdep::Held,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;
/// Shared guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;
/// Exclusive guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    #[inline]
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// Mutual exclusion primitive; `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: lockdep::Class,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex. Its lock-order class is this call's site and
    /// `T`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: lockdep::Class::of::<T>(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockdep::acquire(self.class, self);
        Guard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Try to acquire the lock without blocking. It cannot wait, so it
    /// adds no lock-order edge; while held, the guard counts as any other.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(Guard {
            inner,
            #[cfg(debug_assertions)]
            _held: lockdep::hold(self.class, self),
        })
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Reader-writer lock; `read()`/`write()` return guards directly.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: lockdep::Class,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new rwlock. Its lock-order class is this call's site and
    /// `T`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            class: lockdep::Class::of::<T>(),
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard. A read lock is ordered like an
    /// exclusive one: `std` may queue it behind a waiting writer.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockdep::acquire(self.class, self);
        Guard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Acquire an exclusive write guard.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = lockdep::acquire(self.class, self);
        Guard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_across_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }
}
