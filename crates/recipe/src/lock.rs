//! Versioned word spin-locks for write exclusion inside index nodes.
//!
//! Most of the converted indexes (HOT, CLHT, ART, Masstree) pair non-blocking readers
//! with lock-protected writers (§2.2). The lock word lives inside the node, exactly as
//! in the original C/C++ implementations, which has two RECIPE-relevant consequences:
//!
//! * **Condition #3 detection** — when a writer observes an inconsistency it calls
//!   [`VersionLock::try_lock`]; success means no other writer is active, so the
//!   inconsistency is *permanent* (left by a crash) and must be fixed by the helper.
//! * **Recovery** — locks are persisted along with the node but are only meaningful
//!   within a single run; RECIPE requires them to be re-initialised on restart to
//!   avoid deadlock. [`VersionLock::force_unlock`] implements that re-initialisation
//!   and is called from each index's [`crate::session::Index::recover`].
//!
//! The lock word also carries a version counter (incremented on every unlock).
//! Masstree's readers use it the way the original does: an optimistic seqlock-style
//! read section ([`VersionLock::read_begin`] / [`VersionLock::read_retry`]) that
//! validates the node was not concurrently written, which is what lets a reader pair
//! a slot's key with its value without taking the lock. The other indexes only use
//! the version for debugging assertions.

use std::sync::atomic::{AtomicU64, Ordering};

const LOCKED_BIT: u64 = 1;

/// A word-sized spin-lock with an embedded version counter.
///
/// Bit 0 is the lock bit; the remaining 63 bits count completed critical sections.
#[derive(Debug, Default)]
pub struct VersionLock {
    word: AtomicU64,
}

impl VersionLock {
    /// Create an unlocked lock with version 0.
    #[must_use]
    pub const fn new() -> Self {
        VersionLock { word: AtomicU64::new(0) }
    }

    /// Try to acquire the lock without blocking. Returns a guard on success.
    pub fn try_lock(&self) -> Option<VersionGuard<'_>> {
        let cur = self.word.load(Ordering::Relaxed);
        if cur & LOCKED_BIT != 0 {
            return None;
        }
        if self
            .word
            .compare_exchange(cur, cur | LOCKED_BIT, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(VersionGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquire the lock, spinning until it is available.
    pub fn lock(&self) -> VersionGuard<'_> {
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            while self.is_locked() {
                std::hint::spin_loop();
            }
        }
    }

    /// Whether the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.word.load(Ordering::Acquire) & LOCKED_BIT != 0
    }

    /// Current version (number of completed critical sections).
    pub fn version(&self) -> u64 {
        self.word.load(Ordering::Acquire) >> 1
    }

    /// Begin an optimistic read section: spin until no writer holds the lock and
    /// return the lock word observed. Pair with [`VersionLock::read_retry`] — if the
    /// word changed, a writer ran (or is running) and everything read in between must
    /// be discarded and re-read. This is the Masstree-style version validation.
    pub fn read_begin(&self) -> u64 {
        loop {
            let word = self.word.load(Ordering::Acquire);
            if word & LOCKED_BIT == 0 {
                return word;
            }
            std::hint::spin_loop();
        }
    }

    /// Whether the lock word changed since [`VersionLock::read_begin`] returned
    /// `begin` — i.e. a writer acquired (or completed) the lock, so optimistically
    /// read state is possibly torn.
    pub fn read_retry(&self, begin: u64) -> bool {
        self.word.load(Ordering::Acquire) != begin
    }

    /// Forcefully clear the lock bit, regardless of owner.
    ///
    /// This is the RECIPE post-crash lock re-initialisation: after a (simulated) crash
    /// the owning thread no longer exists, so clearing the bit cannot violate mutual
    /// exclusion. It must only be called from recovery code while no writer threads
    /// are running.
    pub fn force_unlock(&self) {
        self.word.fetch_and(!LOCKED_BIT, Ordering::Release);
    }

    fn unlock(&self) {
        // Clearing the lock bit and bumping the version in one step: +1 clears bit 0
        // (it is known to be set) and carries into the version field.
        self.word.fetch_add(1, Ordering::Release);
    }
}

/// RAII guard for [`VersionLock`]. Dropping it releases the lock and bumps the
/// version — including when an operation unwinds at a simulated crash site, which
/// models the "locks are re-initialised on restart" assumption for RAII-held locks.
#[derive(Debug)]
pub struct VersionGuard<'a> {
    lock: &'a VersionLock,
}

impl Drop for VersionGuard<'_> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_bumps_version() {
        let l = VersionLock::new();
        assert_eq!(l.version(), 0);
        {
            let _g = l.lock();
            assert!(l.is_locked());
            assert!(l.try_lock().is_none());
        }
        assert!(!l.is_locked());
        assert_eq!(l.version(), 1);
    }

    #[test]
    fn try_lock_succeeds_when_free() {
        let l = VersionLock::new();
        let g = l.try_lock();
        assert!(g.is_some());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn force_unlock_clears_a_stuck_lock() {
        let l = VersionLock::new();
        let g = l.lock();
        std::mem::forget(g); // simulate a crash that never released the lock
        assert!(l.is_locked());
        l.force_unlock();
        assert!(!l.is_locked());
        let _g = l.lock(); // usable again
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = Arc::new(VersionLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = l.lock();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
        assert_eq!(l.version(), 8000);
    }

    #[test]
    fn optimistic_read_sections_detect_writers() {
        let l = VersionLock::new();
        let begin = l.read_begin();
        assert!(!l.read_retry(begin), "no writer ran; the read section is valid");
        {
            let _g = l.lock();
            // A reader that began before the writer must observe the change even
            // while the lock is still held (the lock bit flips the word).
            assert!(l.read_retry(begin));
        }
        assert!(l.read_retry(begin), "completed writer bumps the version");
        let begin2 = l.read_begin();
        assert!(!l.read_retry(begin2));
    }

    #[test]
    fn read_begin_waits_for_unlock() {
        let l = Arc::new(VersionLock::new());
        let g = l.lock();
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || l2.read_begin());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        let word = h.join().unwrap();
        assert_eq!(word & 1, 0, "read_begin must return an unlocked word");
    }

    #[test]
    fn guard_released_on_unwind() {
        let l = VersionLock::new();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = l.lock();
            panic!("simulated crash");
        }));
        assert!(res.is_err());
        assert!(!l.is_locked(), "unwinding must release the guard");
    }
}
