//! Opt-in structured event tracing: bounded per-thread ring buffers of
//! compact records, globally sequenced, drained on demand.
//!
//! Tracing is off by default; [`emit`] then costs one relaxed atomic load
//! and performs **zero allocation** (asserted by the crate's
//! `tests/no_alloc.rs`). Enable it with [`set_enabled`] or by exporting
//! `RECIPE_OBS_EVENTS=1` and calling [`init_from_env`]. When enabled, each
//! thread lazily registers a fixed-capacity ring (default 4096 records,
//! `RECIPE_OBS_RING` overrides); a full ring overwrites its oldest record
//! and counts the drop, so the most recent history — the part that explains
//! a failure — is always retained.
//!
//! Records carry a global sequence number from one shared atomic, so a
//! [`drain`] merges every thread's ring into a single totally-ordered
//! timeline. A [`Hold`] keeps tracing on for as long as it lives, whatever
//! [`set_enabled`] says, and [`since`] reads the events from a [`next_seq`]
//! mark on without removing them: the crash harness holds tracing on for a
//! sweep and reads one crash state's window on failure, so sweeps running at
//! once neither switch off nor clear each other's events.
//!
//! ```
//! let was = obs::event::set_enabled(true);
//! obs::event::clear();
//! obs::event::emit("doc.step", "example", 7, 0);
//! let dump = obs::event::drain();
//! obs::event::set_enabled(was);
//! assert_eq!(dump.events.len(), 1);
//! assert_eq!(dump.events[0].kind, "doc.step");
//! assert_eq!(dump.events[0].a, 7);
//! ```

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default per-thread ring capacity (records); `RECIPE_OBS_RING` overrides.
pub const DEFAULT_RING_CAP: usize = 4096;

/// One traced event. `kind` is a stable dotted family name
/// (`"crash.site"`, `"bwtree.smo"`, ...), `detail` a static qualifier
/// (site name, SMO step), and `a`/`b` free-form payload words.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Small per-thread id assigned at ring registration.
    pub tid: u32,
    /// Event family.
    pub kind: &'static str,
    /// Qualifier within the family.
    pub detail: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

struct Ring {
    tid: u32,
    buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            // Overwrite the oldest record: newest history wins.
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn take(&mut self) -> (Vec<Event>, u64) {
        self.next = 0;
        (std::mem::take(&mut self.buf), std::mem::take(&mut self.dropped))
    }
}

/// Whether tracing is on, in one word so that [`emit`] tests one load: bit 0
/// is [`set_enabled`]'s switch, the bits above count the live [`Hold`]s.
static ON: AtomicU64 = AtomicU64::new(0);
const SWITCH: u64 = 1;
const ONE_HOLD: u64 = 2;
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn ring_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("RECIPE_OBS_RING")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_RING_CAP)
    })
}

thread_local! {
    static MY_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// Is event tracing currently enabled (switched on, or held)?
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed) != 0
}

/// Switch tracing on or off; returns the switch's previous setting. A live
/// [`Hold`] keeps tracing on while the switch is off.
pub fn set_enabled(on: bool) -> bool {
    let prev = if on {
        ON.fetch_or(SWITCH, Ordering::Relaxed)
    } else {
        ON.fetch_and(!SWITCH, Ordering::Relaxed)
    };
    prev & SWITCH != 0
}

/// Keeps tracing on while it lives; see [`hold`].
#[must_use = "tracing stays on only while the hold lives"]
pub struct Hold(());

/// Turn tracing on until the returned hold drops. Holds count: tracing stays
/// on while any of them, or the [`set_enabled`] switch, is on.
pub fn hold() -> Hold {
    ON.fetch_add(ONE_HOLD, Ordering::Relaxed);
    Hold(())
}

impl Drop for Hold {
    fn drop(&mut self) {
        ON.fetch_sub(ONE_HOLD, Ordering::Relaxed);
    }
}

/// Enable tracing when `RECIPE_OBS_EVENTS` is set to a truthy value
/// (`1`/`true`/`yes`/`on`).
pub fn init_from_env() {
    if let Ok(v) = std::env::var("RECIPE_OBS_EVENTS") {
        let v = v.trim().to_ascii_lowercase();
        if matches!(v.as_str(), "1" | "true" | "yes" | "on") {
            set_enabled(true);
        }
    }
}

/// Record an event if tracing is enabled. The disabled path is a single
/// relaxed load with no allocation and no thread-local access.
#[inline]
pub fn emit(kind: &'static str, detail: &'static str, a: u64, b: u64) {
    if ON.load(Ordering::Relaxed) == 0 {
        return;
    }
    emit_slow(kind, detail, a, b);
}

#[cold]
fn emit_slow(kind: &'static str, detail: &'static str, a: u64, b: u64) {
    MY_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let arc = slot.get_or_insert_with(register);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut ring = arc.lock();
        let tid = ring.tid;
        ring.push(Event { seq, tid, kind, detail, a, b });
    });
}

/// Give the calling thread a ring: one an exited thread left behind (its
/// records stay readable until overwritten), else a new one. Reuse bounds the
/// rings by the threads alive at once, however many come and go between two
/// drains.
fn register() -> Arc<Mutex<Ring>> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let mut rings = rings().lock();
    // strong_count == 1: only the registry holds it, its thread exited.
    // Registering happens under the registry lock, so no two threads take it.
    if let Some(ring) = rings.iter().find(|r| Arc::strong_count(r) == 1) {
        ring.lock().tid = tid;
        return Arc::clone(ring);
    }
    let cap = ring_cap();
    let ring =
        Arc::new(Mutex::new(Ring { tid, buf: Vec::with_capacity(cap), cap, next: 0, dropped: 0 }));
    rings.push(Arc::clone(&ring));
    ring
}

/// The sequence number the next event will get: a mark for [`since`].
#[must_use]
pub fn next_seq() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Every retained event with `seq` at or after `start` (a [`next_seq`] mark), in
/// sequence order, without removing anything. `dropped` counts the window's
/// events no ring holds any more (overwritten, or taken by a [`drain`] or
/// [`clear`]). Events of every thread are included, so a window read while
/// other threads trace holds their events too.
#[must_use]
pub fn since(start: u64) -> Dump {
    let end = SEQ.load(Ordering::Relaxed);
    let mut events: Vec<Event> = Vec::new();
    for ring in rings().lock().iter() {
        events.extend(ring.lock().buf.iter().filter(|e| (start..end).contains(&e.seq)));
    }
    events.sort_unstable_by_key(|e| e.seq);
    let dropped = end.saturating_sub(start).saturating_sub(events.len() as u64);
    Dump { events, dropped }
}

/// A drained event timeline.
#[derive(Clone, Debug, Default)]
pub struct Dump {
    /// Events from every thread, ascending by global sequence number.
    pub events: Vec<Event>,
    /// Records overwritten before the drain (oldest-dropped accounting).
    pub dropped: u64,
}

impl Dump {
    /// The newest `n` events as their own dump; everything older is folded
    /// into the `dropped` count. Used by failure reporters that want the
    /// tail of the timeline without flooding the log.
    #[must_use]
    pub fn tail(&self, n: usize) -> Dump {
        let skip = self.events.len().saturating_sub(n);
        Dump { events: self.events[skip..].to_vec(), dropped: self.dropped + skip as u64 }
    }
}

impl std::fmt::Display for Dump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for ev in &self.events {
            writeln!(
                f,
                "  #{seq:<6} t{tid} {kind} {detail} a={a} b={b}",
                seq = ev.seq,
                tid = ev.tid,
                kind = ev.kind,
                detail = ev.detail,
                a = ev.a,
                b = ev.b
            )?;
        }
        if self.dropped > 0 {
            writeln!(f, "  ({} older events dropped by ring overflow)", self.dropped)?;
        }
        Ok(())
    }
}

/// Drain every thread's ring into one sequence-ordered timeline, emptying
/// the rings. Rings belonging to threads that have since exited are drained
/// too, then discarded.
pub fn drain() -> Dump {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut rings = rings().lock();
    rings.retain(|arc| {
        let (evs, drops) = arc.lock().take();
        events.extend(evs);
        dropped += drops;
        // strong_count == 1 means only the registry holds it: the owning
        // thread exited, so the (now empty) ring can be discarded.
        Arc::strong_count(arc) > 1
    });
    drop(rings);
    events.sort_unstable_by_key(|e| e.seq);
    Dump { events, dropped }
}

/// Empty all rings (and discard rings of exited threads) without building a
/// dump. Call at the start of a scoped capture, e.g. one crash state.
pub fn clear() {
    let mut rings = rings().lock();
    rings.retain(|arc| {
        let _ = arc.lock().take();
        Arc::strong_count(arc) > 1
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The event subsystem is global, so these tests serialise on a lock to
    // avoid interleaving with each other under the multi-threaded test
    // runner.
    fn guard() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn disabled_emit_records_nothing() {
        let _g = guard();
        let was = set_enabled(false);
        clear();
        emit("t.ev", "off", 1, 2);
        let dump = drain();
        set_enabled(was);
        assert!(dump.events.is_empty());
        assert_eq!(dump.dropped, 0);
    }

    #[test]
    fn events_are_sequenced_across_threads() {
        let _g = guard();
        let was = set_enabled(true);
        clear();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..50u64 {
                        emit("t.ev", "mt", t, i);
                    }
                });
            }
        });
        let dump = drain();
        set_enabled(was);
        assert_eq!(dump.events.len(), 200);
        for w in dump.events.windows(2) {
            assert!(w[0].seq < w[1].seq, "strictly ascending seq");
        }
        // Per-thread order must be preserved within the global order.
        for t in 0..4u64 {
            let per: Vec<u64> = dump.events.iter().filter(|e| e.a == t).map(|e| e.b).collect();
            assert_eq!(per, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = guard();
        let was = set_enabled(true);
        clear();
        // A dedicated thread gets a fresh ring; overflow it deliberately.
        let cap = ring_cap();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..(cap as u64 + 10) {
                    emit("t.ev", "ovf", i, 0);
                }
            });
        });
        let dump = drain();
        set_enabled(was);
        let ovf: Vec<&Event> = dump.events.iter().filter(|e| e.detail == "ovf").collect();
        assert_eq!(ovf.len(), cap, "ring keeps exactly `cap` newest records");
        assert_eq!(dump.dropped, 10, "dropped records are accounted");
        // The *newest* records survive.
        let min_a = ovf.iter().map(|e| e.a).min().unwrap();
        assert_eq!(min_a, 10);
    }

    #[test]
    fn tail_keeps_newest_and_accounts_for_the_rest() {
        let _g = guard();
        let was = set_enabled(true);
        clear();
        for i in 0..10u64 {
            emit("t.ev", "tail", i, 0);
        }
        let dump = drain();
        set_enabled(was);
        let tail = dump.tail(3);
        assert_eq!(tail.events.len(), 3);
        assert_eq!(tail.events[0].a, 7, "newest three survive");
        assert_eq!(tail.dropped, 7, "older events counted as dropped");
    }

    #[test]
    fn holds_count_and_since_reads_a_window_without_removing_it() {
        let _g = guard();
        let was = set_enabled(false);
        let (a, b) = (hold(), hold());
        emit("t.ev", "before", 0, 0);
        let start = next_seq();
        emit("t.ev", "in", 1, 0);
        drop(a);
        assert!(enabled(), "one hold still lives");
        emit("t.ev", "in", 2, 0);
        let window = since(start);
        assert_eq!(window.events.iter().map(|e| e.a).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(window.dropped, 0);
        assert_eq!(since(start).events.len(), 2, "reading removes nothing");
        assert!(!set_enabled(false), "a hold is not the switch");
        drop(b);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn an_exited_threads_ring_is_reused_and_still_read() {
        let _g = guard();
        let was = set_enabled(true);
        clear();
        let start = next_seq();
        for t in 0..3u64 {
            std::thread::spawn(move || emit("t.ev", "reuse", t, 0)).join().unwrap();
        }
        let rings_now = rings().lock().len();
        std::thread::spawn(|| emit("t.ev", "reuse", 3, 0)).join().unwrap();
        assert_eq!(rings().lock().len(), rings_now, "the new thread took an exited thread's ring");
        let window = since(start);
        set_enabled(was);
        let seen: Vec<u64> =
            window.events.iter().filter(|e| e.detail == "reuse").map(|e| e.a).collect();
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn clear_discards_pending_events() {
        let _g = guard();
        let was = set_enabled(true);
        clear();
        emit("t.ev", "gone", 0, 0);
        clear();
        emit("t.ev", "kept", 0, 0);
        let dump = drain();
        set_enabled(was);
        let details: Vec<&str> = dump.events.iter().map(|e| e.detail).collect();
        assert!(!details.contains(&"gone"));
        assert!(details.contains(&"kept"));
    }
}
