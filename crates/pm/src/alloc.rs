//! Persistent-memory allocation: a line-aligned slab and the tracker hooks.
//!
//! RECIPE assumes a persistent-memory allocator with garbage collection: a crash in the
//! middle of an update may leave a freshly allocated object unreachable, and the
//! allocator is expected to reclaim it eventually (§4.2). The paper's evaluation uses
//! PMDK's `libvmmalloc`, which transparently redirects `malloc`/`new` to a PM pool.
//!
//! [`pm_box`] allocates an object on the simulated PM pool, registers the allocation
//! with the durability [`crate::tracker`], and marks all of its cache lines dirty — a
//! newly constructed node must be flushed before it is linked into the index, and the
//! durability test catches indexes that forget to do so (exactly the class of bug the
//! paper found in FAST & FAIR and CCEH root allocation).
//!
//! # Where the bytes come from
//!
//! [`pm_line_box`] serves a type aligned to exactly one cache line
//! ([`crate::CACHE_LINE`]) and at most [`SLAB_MAX`] bytes large from the **slab**:
//! size classes of whole lines (64, 128, …, 4096 bytes), carved from line-aligned
//! chunks of [`CHUNK_BYTES`]. Every block starts on a line and spans exactly the lines
//! its size needs, so how many `clwb`s persisting an object costs is a property of
//! its type, not of where the heap happened to put it. Each thread keeps a cache —
//! one free list per class and the unused tail of its current chunk — so the common
//! allocation and free touch no shared state: a thread whose list runs dry locks the
//! pool only when a per-class count says it holds a batch. Any other type passed to
//! it (unaligned, over-aligned or larger) goes through `Box`.
//!
//! The slab serves P-BwTree's delta records and page headers, P-Masstree's nodes,
//! the one-line leaves of P-ART and P-HOT (`recipe::key::Leaf`), and P-HOT's
//! compound nodes, one line-aligned block per capacity class (the 64-slot class from
//! the slab, the 256- and 1024-slot classes, larger than [`SLAB_MAX`], from `Box`
//! at the same alignment). [`pm_box`] keeps every type on the global heap, and the
//! line-aligned nodes that predate the slab (the tries' plain inner nodes, P-CLHT's
//! buckets, CCEH's segments) stay there: on the slab, P-ART's inner nodes pack
//! densely enough to speed its reads by a fifth against FAST & FAIR, which moves the
//! paper-shape orderings `shape_check` gates (P-HOT's read ratio against the best
//! ordered index) until those gates are re-fitted. A leaf is read once per lookup,
//! after the descent, so where it lives does not move them.
//!
//! # Reclamation model
//!
//! * An index frees everything it owns in its `Drop`: a walk from the root collects
//!   each reachable object once (a node reachable twice, as a crash or an alias can
//!   leave it, is still freed once) and hands the lot to [`pm_drop_all`] or
//!   [`pm_line_drop_all`].
//! * An object a structure-modification operation unlinks during the run (a grown
//!   trie node, a split segment, a replaced directory, a removed leaf) is *retired*:
//!   non-blocking readers may still be reading it, so it is not freed then. The
//!   Bw-tree retires through `recipe::epoch` and frees at epoch quiescence; the tries
//!   and the hand-crafted hash tables retire through the same `Collector::defer_free`
//!   but never pin it, so what they retire is freed when the index drops.
//! * An object a crash leaves allocated but unreachable is leaked: RECIPE's
//!   garbage-collecting allocator (§4.2) would reclaim it with a recovery-time mark
//!   pass, which this module does not have yet.
//! * A freed slab block goes on the freeing thread's list for its class, which need
//!   not be the allocating thread's. A list that grows past a bound moves to a shared
//!   pool as one batch, and a thread whose list runs dry takes a batch from the pool
//!   before carving new blocks. [`pm_line_drop_all`] frees in descending address
//!   order, so the next index that takes the blocks carves them in ascending order,
//!   as from a fresh chunk.
//! * When a thread exits, its lists and its chunk tail return to the pool, so a
//!   stream of short-lived threads reuses the same chunks instead of growing the
//!   slab. Chunks themselves are never returned to the system.
//!
//! This slab is the seed of the persistent heap the roadmap plans (one line-aligned,
//! size-classed arena that every PM byte comes from, with a recovery-time mark pass
//! for what a crash leaked); today it serves the line-aligned types named above.
//!
//! Allocation and free counters (fields of the allocating or freeing thread's
//! [`crate::stats`] slab, summed over all threads by the readers here) are exposed so
//! tests can assert that structure-modification operations allocate the expected
//! number of nodes, and so a leak shows as allocated bytes that are never freed. They
//! count object sizes, the same on either path.

use crate::{stats, tracker, CACHE_LINE};
use parking_lot::Mutex;
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest object size, in bytes, the slab serves; larger line-aligned types use `Box`.
pub const SLAB_MAX: usize = 4096;

/// Size of one slab chunk, in bytes (line-aligned, carved into blocks).
pub const CHUNK_BYTES: usize = 256 * 1024;

/// One size class per whole number of lines up to [`SLAB_MAX`].
const CLASSES: usize = SLAB_MAX / CACHE_LINE;

/// Bytes of free blocks a thread keeps per class before handing them to the pool.
const LOCAL_MAX_BYTES: usize = 64 * 1024;

/// Whether `T` is served by the slab (a compile-time constant per type).
const fn slab_served<T>() -> bool {
    let size = std::mem::size_of::<T>();
    std::mem::align_of::<T>() == CACHE_LINE && size > 0 && size <= SLAB_MAX
}

/// Size class of a slab-served type: its size in lines, minus one.
const fn class_of<T>() -> usize {
    std::mem::size_of::<T>().div_ceil(CACHE_LINE) - 1
}

/// Block size of class `c`, in bytes.
const fn block_bytes(c: usize) -> usize {
    (c + 1) * CACHE_LINE
}

/// An intrusive singly linked list of free blocks of one class, by address (the
/// first word of a free block holds the next block's address, 0 ends the list).
#[derive(Clone, Copy)]
struct FreeList {
    head: usize,
    len: usize,
}

impl FreeList {
    const EMPTY: FreeList = FreeList { head: 0, len: 0 };

    fn push(&mut self, block: usize) {
        // SAFETY: `block` is a free, line-aligned slab block of at least one line
        // that nothing else references; its first word is ours to link through.
        unsafe { (block as *mut usize).write(self.head) };
        self.head = block;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<usize> {
        if self.head == 0 {
            return None;
        }
        let block = self.head;
        // SAFETY: `block` is on this list, so its first word is the link `push` wrote.
        self.head = unsafe { (block as *const usize).read() };
        self.len -= 1;
        Some(block)
    }
}

/// Blocks and chunk tails not owned by any thread.
struct Pool {
    /// Per class, batches of free blocks handed over by threads.
    batches: [Vec<FreeList>; CLASSES],
    /// Unused chunk tails `(start, end)` left by exited threads.
    tails: Vec<(usize, usize)>,
}

static POOL: Mutex<Pool> =
    Mutex::new(Pool { batches: [const { Vec::new() }; CLASSES], tails: Vec::new() });

/// Per class, how many batches the pool holds: written under the pool's lock, read
/// without it, so a thread whose list runs dry locks the pool only when there is a
/// batch to take.
static POOLED: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];

impl Pool {
    fn push_batch(&mut self, c: usize, batch: FreeList) {
        self.batches[c].push(batch);
        POOLED[c].fetch_add(1, Ordering::Relaxed);
    }

    fn pop_batch(&mut self, c: usize) -> Option<FreeList> {
        let batch = self.batches[c].pop()?;
        POOLED[c].fetch_sub(1, Ordering::Relaxed);
        Some(batch)
    }
}

/// Chunks allocated since process start.
static CHUNKS: AtomicUsize = AtomicUsize::new(0);

/// One thread's slab cache.
struct Cache {
    free: [FreeList; CLASSES],
    /// The unused tail `[bump, end)` of the thread's current chunk.
    bump: usize,
    end: usize,
}

impl Cache {
    const EMPTY: Cache = Cache { free: [FreeList::EMPTY; CLASSES], bump: 0, end: 0 };

    fn alloc(&mut self, c: usize) -> usize {
        if let Some(block) = self.free[c].pop() {
            return block;
        }
        if POOLED[c].load(Ordering::Relaxed) > 0 {
            if let Some(batch) = POOL.lock().pop_batch(c) {
                self.free[c] = batch;
                return self.free[c].pop().expect("the pool holds no empty batch");
            }
        }
        let size = block_bytes(c);
        if self.end - self.bump < size {
            self.refill(size);
        }
        let block = self.bump;
        self.bump += size;
        block
    }

    /// Replace the exhausted chunk tail with one that fits `size` bytes: an exited
    /// thread's tail from the pool, else a new chunk. What is left of the old tail
    /// becomes one free block of its own size class.
    fn refill(&mut self, size: usize) {
        let rest = self.end - self.bump;
        if rest > 0 {
            self.free[rest / CACHE_LINE - 1].push(self.bump);
        }
        let reused = {
            let mut pool = POOL.lock();
            let fits = pool.tails.iter().position(|&(start, end)| end - start >= size);
            fits.map(|i| pool.tails.swap_remove(i))
        };
        (self.bump, self.end) = reused.unwrap_or_else(|| {
            let layout = Layout::from_size_align(CHUNK_BYTES, CACHE_LINE)
                .expect("the chunk layout is valid");
            // SAFETY: the layout has a non-zero size.
            let chunk = unsafe { std::alloc::alloc(layout) };
            if chunk.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            CHUNKS.fetch_add(1, Ordering::Relaxed);
            (chunk as usize, chunk as usize + CHUNK_BYTES)
        });
    }

    fn free(&mut self, c: usize, block: usize) {
        let list = &mut self.free[c];
        list.push(block);
        if list.len * block_bytes(c) > LOCAL_MAX_BYTES {
            POOL.lock().push_batch(c, std::mem::replace(list, FreeList::EMPTY));
        }
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        let mut pool = POOL.lock();
        for (c, list) in self.free.iter_mut().enumerate() {
            if list.len > 0 {
                pool.push_batch(c, std::mem::replace(list, FreeList::EMPTY));
            }
        }
        if self.end > self.bump {
            pool.tails.push((self.bump, self.end));
        }
    }
}

thread_local! {
    static CACHE: UnsafeCell<Cache> = const { UnsafeCell::new(Cache::EMPTY) };
}

/// Run `f` on the calling thread's cache — or, once the thread's locals are being
/// torn down, on a transient cache that hands everything back to the pool.
fn with_cache<R>(f: impl FnOnce(&mut Cache) -> R) -> R {
    let mut f = Some(f);
    let served = CACHE.try_with(|cell| {
        // SAFETY: the cache is thread-local and `Cache`'s methods never re-enter this
        // function, so this is the only live reference to it.
        let cache = unsafe { &mut *cell.get() };
        (f.take().expect("not yet called"))(cache)
    });
    served.unwrap_or_else(|_| {
        let mut transient = Cache::EMPTY;
        (f.take().expect("not yet called"))(&mut transient)
    })
}

/// Count and register a fresh PM object of `size` bytes at `p`: all of its lines
/// start dirty.
fn on_alloc(p: usize, size: usize) {
    stats::bump(stats::ALLOC_OBJECTS, 1);
    stats::bump(stats::ALLOC_BYTES, size as u64);
    if tracker::enabled() {
        tracker::on_alloc(p, size);
        tracker::on_store(p, size);
    }
}

/// Count a freed PM object of `size` bytes.
fn on_free(size: usize) {
    stats::bump(stats::FREED_OBJECTS, 1);
    stats::bump(stats::FREED_BYTES, size as u64);
}

/// Allocate `val` on the simulated PM pool and return a raw pointer to it.
///
/// The object is registered with the durability tracker and all of its cache lines are
/// marked dirty: callers must persist it (flush + fence) before publishing a pointer
/// to it, or the §5 durability check will flag the lines as unflushed.
///
/// Free it with [`pm_drop`] once no other thread can still reach it.
pub fn pm_box<T>(val: T) -> *mut T {
    let p = Box::into_raw(Box::new(val));
    on_alloc(p as usize, std::mem::size_of::<T>());
    p
}

/// [`pm_box`] for a line-aligned type: `val` goes into a slab block of its size class
/// (see the module documentation), any other type into a `Box`. Counted and
/// registered the same way; free it with [`pm_line_drop`], never [`pm_drop`].
pub fn pm_line_box<T>(val: T) -> *mut T {
    let p = if slab_served::<T>() {
        let p = with_cache(|cache| cache.alloc(class_of::<T>())) as *mut T;
        // SAFETY: a fresh slab block: line-aligned, at least `size_of::<T>()` bytes,
        // referenced by nothing else.
        unsafe { p.write(val) };
        p
    } else {
        Box::into_raw(Box::new(val))
    };
    on_alloc(p as usize, std::mem::size_of::<T>());
    p
}

/// Copy `bytes` into a new boxed slice on the simulated PM pool: the variable-length
/// companion of a line-aligned record (a key too long to sit inline, say). Registered
/// with the tracker and marked dirty like a [`pm_box`] object, so it too must be
/// flushed before anything that points at it is published. Freed by dropping the box,
/// so it is not in the allocation counters.
pub fn pm_slice(bytes: &[u8]) -> Box<[u8]> {
    let b: Box<[u8]> = bytes.into();
    if tracker::enabled() && !b.is_empty() {
        tracker::on_alloc(b.as_ptr() as usize, b.len());
        tracker::on_store(b.as_ptr() as usize, b.len());
    }
    b
}

/// Free an object previously allocated with [`pm_box`].
///
/// # Safety
///
/// `p` must have been returned by [`pm_box`], must not have been freed before, and no
/// other thread may hold a reference to it (typically only safe from a `Drop`
/// implementation that owns the entire structure).
pub unsafe fn pm_drop<T>(p: *mut T) {
    if p.is_null() {
        return;
    }
    on_free(std::mem::size_of::<T>());
    // SAFETY: contract delegated to the caller.
    drop(unsafe { Box::from_raw(p) });
}

/// Drop and free an object previously allocated with [`pm_line_box`]. Any thread may
/// free it, not only the allocating one.
///
/// # Safety
///
/// `p` must have been returned by [`pm_line_box`] for this same `T`, must not have
/// been freed before, and no other thread may hold a reference to it (exclusive
/// access in a `Drop`, or epoch quiescence).
pub unsafe fn pm_line_drop<T>(p: *mut T) {
    if p.is_null() {
        return;
    }
    on_free(std::mem::size_of::<T>());
    if slab_served::<T>() {
        // SAFETY: contract delegated to the caller; the block is a slab block of
        // `T`'s class (same `T` as at allocation).
        unsafe { p.drop_in_place() };
        with_cache(|cache| cache.free(class_of::<T>(), p as usize));
    } else {
        // SAFETY: contract delegated to the caller; non-slab objects are boxes.
        drop(unsafe { Box::from_raw(p) });
    }
}

/// Free every distinct object of `objs`, each allocated with [`pm_box`]: a pointer
/// that appears more than once is freed once.
///
/// # Safety
///
/// Every pointer must satisfy [`pm_drop`]'s contract.
pub unsafe fn pm_drop_all<T>(mut objs: Vec<*mut T>) {
    objs.sort_unstable();
    objs.dedup();
    for p in objs {
        // SAFETY: contract delegated to the caller; each pointer once.
        unsafe { pm_drop(p) };
    }
}

/// Free every distinct object of `objs`, each allocated with [`pm_line_box`], highest
/// address first: the slab's lists hand blocks out last-freed first, so whoever
/// takes them next carves them in ascending order, as from a fresh chunk. A pointer
/// that appears more than once is freed once.
///
/// # Safety
///
/// Every pointer must satisfy [`pm_line_drop`]'s contract.
pub unsafe fn pm_line_drop_all<T>(mut objs: Vec<*mut T>) {
    objs.sort_unstable_by(|a, b| b.cmp(a));
    objs.dedup();
    for p in objs {
        // SAFETY: contract delegated to the caller; each pointer once.
        unsafe { pm_line_drop(p) };
    }
}

/// Number of objects allocated through [`pm_box`] and [`pm_line_box`] since process
/// start, by any thread.
pub fn allocated_objects() -> u64 {
    stats::totals()[stats::ALLOC_OBJECTS]
}

/// Number of bytes allocated through [`pm_box`] and [`pm_line_box`] since process
/// start, by any thread.
pub fn allocated_bytes() -> u64 {
    stats::totals()[stats::ALLOC_BYTES]
}

/// Number of bytes freed through [`pm_drop`] and [`pm_line_drop`] since process
/// start, by any thread.
pub fn freed_bytes() -> u64 {
    stats::totals()[stats::FREED_BYTES]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serialises the tests that carve slab blocks: the chunk count and the pool
    /// are process-wide, so one test's carving would move another's counts. It
    /// goes when the pool moves into the persistent heap.
    static POOL_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Slab chunks allocated since process start.
    fn slab_chunks() -> usize {
        CHUNKS.load(Ordering::Relaxed)
    }

    #[test]
    fn pm_box_allocates_and_counts() {
        let before = stats::local()[stats::ALLOC_OBJECTS];
        let p = pm_box(42u64);
        assert!(!p.is_null());
        // SAFETY: freshly allocated, no other references exist.
        unsafe {
            assert_eq!(*p, 42);
            pm_drop(p);
        }
        assert_eq!(stats::local()[stats::ALLOC_OBJECTS], before + 1);
        assert!(allocated_objects() > before, "the process total counts it too");
    }

    #[test]
    fn pm_box_marks_lines_dirty_when_tracking() {
        let _d = crate::Domain::new().enter();
        tracker::enable();
        let p = pm_box([0u8; 256]);
        let report = tracker::check(false);
        assert!(!report.is_durable(), "fresh allocation must appear dirty");
        assert!(report.allocations >= 1);
        // Flushing the object and fencing makes it durable.
        crate::flush::persist_obj(p, true);
        assert!(tracker::check(false).is_durable());
        tracker::disable();
        // SAFETY: freshly allocated, no other references exist.
        unsafe { pm_drop(p) };
    }

    #[test]
    fn pm_drop_handles_null() {
        // SAFETY: null is explicitly allowed.
        unsafe { pm_drop::<u64>(std::ptr::null_mut()) };
    }

    /// A line-aligned object of `N` bytes of payload.
    #[repr(align(64))]
    struct Lines<const N: usize>([u8; N]);

    /// Allocate one `Lines<N>` and check where it landed.
    fn check_class<const N: usize>() {
        let p = pm_line_box(Lines([7u8; N]));
        let addr = p as usize;
        assert_eq!(addr % CACHE_LINE, 0, "{N}-byte object is not line-aligned");
        let size = std::mem::size_of::<Lines<N>>();
        assert_eq!(
            crate::flush::lines_spanned(addr, size),
            size.div_ceil(CACHE_LINE),
            "{N}-byte object spans more lines than its size needs"
        );
        // SAFETY: freshly allocated, no other references exist.
        unsafe {
            assert!((*p).0.iter().all(|&b| b == 7));
            pm_line_drop(p);
        }
    }

    #[test]
    fn every_size_class_is_line_aligned_and_tight() {
        let _g = POOL_TEST_LOCK.lock();
        assert!(slab_served::<Lines<1>>() && slab_served::<Lines<{ SLAB_MAX }>>());
        assert_eq!(class_of::<Lines<64>>(), 0);
        assert_eq!(class_of::<Lines<65>>(), 1);
        assert_eq!(class_of::<Lines<{ SLAB_MAX }>>(), CLASSES - 1);
        // One object per class: 64, 128, …, 4096 bytes (and odd sizes in between).
        macro_rules! classes {
            ($($n:literal)*) => { $(check_class::<$n>();)* };
        }
        classes!(1 64 65 128 192 200 256 320 384 448 512 576 640 704 768 832 896 960 1024
                 1088 1152 1280 1536 1792 2048 2304 2560 2816 3072 3328 3584 3840 4000 4096);
        // Many of one class in a row: consecutive blocks never straddle a line.
        let ps: Vec<_> = (0..100).map(|_| pm_line_box(Lines([0u8; 100]))).collect();
        for &p in &ps {
            assert_eq!(p as usize % CACHE_LINE, 0);
            assert_eq!(crate::flush::lines_spanned(p as usize, 128), 2);
        }
        for p in ps {
            // SAFETY: allocated above, never shared.
            unsafe { pm_line_drop(p) };
        }
    }

    #[test]
    fn a_dropped_block_is_reused() {
        let _g = POOL_TEST_LOCK.lock();
        let a = pm_line_box(Lines([1u8; 192]));
        // SAFETY: freshly allocated, never shared.
        unsafe { pm_line_drop(a) };
        let b = pm_line_box(Lines([2u8; 192]));
        assert_eq!(a, b, "the freed block is the next one of its class");
        // SAFETY: freshly allocated, never shared.
        unsafe { pm_line_drop(b) };
    }

    #[test]
    fn drop_all_frees_each_block_once_and_hands_them_out_ascending() {
        let _g = POOL_TEST_LOCK.lock();
        let ps: Vec<_> = (0..8).map(|_| pm_line_box(Lines([0u8; 448]))).collect();
        let mut sorted = ps.clone();
        sorted.sort_unstable();
        // Out of order, and one pointer twice, as a walk that reaches a node by two
        // paths would collect it.
        let mut freed = vec![ps[3], ps[0], ps[7], ps[3]];
        freed.extend([ps[1], ps[2], ps[4], ps[5], ps[6]]);
        let before = stats::local();
        // SAFETY: allocated above, never shared; the duplicate is freed once.
        unsafe { pm_line_drop_all(freed) };
        let after = stats::local();
        assert_eq!(after[stats::FREED_OBJECTS] - before[stats::FREED_OBJECTS], 8);
        assert_eq!(
            after[stats::FREED_BYTES] - before[stats::FREED_BYTES],
            8 * std::mem::size_of::<Lines<448>>() as u64
        );
        let again: Vec<_> = (0..8).map(|_| pm_line_box(Lines([1u8; 448]))).collect();
        assert_eq!(again, sorted, "the freed blocks come back lowest address first");
        // SAFETY: allocated above, never shared.
        unsafe { pm_line_drop_all(again) };
    }

    #[test]
    fn pm_drop_all_frees_each_box_once() {
        let ps: Vec<_> = (0..4u64).map(pm_box).collect();
        let before = stats::local();
        // SAFETY: allocated above, never shared; the duplicates are freed once.
        unsafe { pm_drop_all([ps.clone(), ps].concat()) };
        let after = stats::local();
        assert_eq!(after[stats::FREED_OBJECTS] - before[stats::FREED_OBJECTS], 4);
        assert_eq!(after[stats::FREED_BYTES] - before[stats::FREED_BYTES], 4 * 8);
        assert!(freed_bytes() >= 4 * 8, "the process total counts them too");
    }

    #[test]
    fn drop_runs_the_destructor_of_a_slab_object() {
        let _g = POOL_TEST_LOCK.lock();
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[repr(align(64))]
        struct Counted(Vec<u8>);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        assert!(slab_served::<Counted>());
        let p = pm_line_box(Counted(vec![1, 2, 3]));
        // SAFETY: freshly allocated, never shared.
        assert_eq!(unsafe { &(*p).0 }, &[1, 2, 3]);
        // SAFETY: freshly allocated, never shared.
        unsafe { pm_line_drop(p) };
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_block_may_be_freed_on_another_thread() {
        let _g = POOL_TEST_LOCK.lock();
        // Allocated here, freed there, and then handed out there again.
        let a = pm_line_box(Lines([3u8; 320])) as usize;
        let reused = std::thread::spawn(move || {
            // SAFETY: allocated above; this thread now owns the only reference.
            unsafe { pm_line_drop(a as *mut Lines<320>) };
            let b = pm_line_box(Lines([4u8; 320]));
            // SAFETY: freshly allocated, never shared.
            unsafe { pm_line_drop(b) };
            b as usize
        })
        .join()
        .expect("the freeing thread ran");
        assert_eq!(reused, a, "the other thread reused the block it freed");
    }

    #[test]
    fn a_batch_freed_on_one_thread_is_taken_by_another() {
        let _g = POOL_TEST_LOCK.lock();
        // 2880-byte blocks: a class no other test allocates. Forty of them are more
        // than a thread keeps, so one batch moves to the pool on a free and the rest
        // when the thread exits.
        let c = class_of::<Lines<2880>>();
        let freed: Vec<usize> = std::thread::spawn(|| {
            let ps: Vec<_> = (0..40).map(|_| pm_line_box(Lines([0u8; 2880]))).collect();
            for &p in &ps {
                // SAFETY: allocated above, never shared.
                unsafe { pm_line_drop(p) };
            }
            ps.into_iter().map(|p| p as usize).collect()
        })
        .join()
        .expect("the freeing thread ran");
        assert_eq!(POOLED[c].load(Ordering::Relaxed), 2, "a full list and the exit's rest");
        let taken = std::thread::spawn(|| {
            let p = pm_line_box(Lines([1u8; 2880]));
            // SAFETY: freshly allocated, never shared.
            unsafe { pm_line_drop(p) };
            p as usize
        })
        .join()
        .expect("the allocating thread ran");
        assert!(freed.contains(&taken), "a thread with an empty list carved a new block");
    }

    #[test]
    fn exited_threads_return_their_cache_to_the_pool() {
        let _g = POOL_TEST_LOCK.lock();
        let before = slab_chunks();
        for i in 0..200u32 {
            std::thread::spawn(move || {
                // A few objects of a few classes; some freed, some kept alive.
                let kept = pm_line_box(Lines([i as u8; 64]));
                for _ in 0..4 {
                    let p = pm_line_box(Lines([0u8; 1000]));
                    // SAFETY: freshly allocated, never shared.
                    unsafe { pm_line_drop(p) };
                }
                kept as usize
            })
            .join()
            .expect("the thread ran");
        }
        // 200 threads each starting a private chunk would need 200; returned tails
        // and free lists are picked up by the next thread instead.
        let grown = slab_chunks() - before;
        assert!(grown <= 2, "200 short-lived threads allocated {grown} chunks");
    }

    #[test]
    fn an_oversized_or_over_aligned_type_falls_back_to_box() {
        #[repr(align(64))]
        struct Huge([u8; SLAB_MAX + 1]);
        #[repr(align(128))]
        struct Wide([u8; 128]);
        assert!(!slab_served::<Huge>());
        assert!(!slab_served::<Wide>());
        assert!(!slab_served::<[u64; 8]>(), "an 8-aligned type stays on the heap");
        let _g = POOL_TEST_LOCK.lock();
        let before = slab_chunks();
        let h = pm_line_box(Huge([1; SLAB_MAX + 1]));
        let w = pm_line_box(Wide([5; 128]));
        assert_eq!(w as usize % 128, 0, "the box honours the wider alignment");
        // SAFETY: freshly allocated, never shared.
        unsafe {
            assert_eq!(((*h).0[SLAB_MAX], (*w).0[127]), (1, 5));
            pm_line_drop(h);
            pm_line_drop(w);
        }
        assert_eq!(slab_chunks(), before, "no slab chunk for a boxed type");
    }

    #[test]
    fn slab_allocations_register_and_count_like_boxes() {
        let _g = POOL_TEST_LOCK.lock();
        let _d = crate::Domain::new().enter();
        tracker::enable();
        let objects = stats::local();
        let p = pm_line_box(Lines([0u8; 130]));
        let q = pm_box(Lines([0u8; 130]));
        let after = stats::local();
        assert_eq!(after[stats::ALLOC_OBJECTS] - objects[stats::ALLOC_OBJECTS], 2);
        assert_eq!(
            after[stats::ALLOC_BYTES] - objects[stats::ALLOC_BYTES],
            2 * std::mem::size_of::<Lines<130>>() as u64,
            "the slab and the heap count the same object size"
        );
        let report = tracker::check(false);
        assert_eq!(report.allocations, 2, "both paths register with the tracker");
        assert_eq!(report.unflushed.len(), 3 + 3, "both objects' three lines are dirty");
        crate::flush::persist_obj(p, false);
        crate::flush::persist_obj(q, true);
        assert!(tracker::check(true).is_durable());
        tracker::disable();
        // SAFETY: freshly allocated, never shared.
        unsafe {
            pm_line_drop(p);
            pm_drop(q);
        }
    }
}
