//! Allocation accounting: a counting [`GlobalAlloc`] wrapper with
//! thread-local attribution scopes.
//!
//! The paper's bounds are *resource* bounds — Theorem 3.2 is as much a
//! space claim (the ground Horn formula is linear in `|D|`) as a time
//! claim — so bytes and allocations are first-class observables here,
//! mirroring the span layer's design:
//!
//! * [`CountingAlloc`] wraps the system allocator. `treequery-obs`
//!   installs it as the process `#[global_allocator]`, so every crate in
//!   the workspace is covered without per-binary setup. When accounting
//!   is **off** (the default) each allocation pays one relaxed atomic
//!   load — the same disabled-path budget the span layer holds itself to
//!   (enforced by `harness --check-noop-overhead`).
//! * [`AccountingGuard`] turns accounting on for a region (nestable;
//!   reference-counted). While on, process-wide totals
//!   ([`global_stats`]: allocations, bytes, live bytes, peak live) are
//!   maintained on every alloc/dealloc.
//! * [`AllocScope`] attributes allocations to a *stage name* — the same
//!   dot-separated names the span layer uses (`exec.semijoin`,
//!   `hornsat.solve`, …). Scopes are a thread-local stack: the innermost
//!   scope on the allocating thread is charged (self-exclusive, like a
//!   span's self time). The scope is part of the
//!   [`QueryCtx`](crate::QueryCtx), so a kernel chunk running on a pool
//!   worker still charges the stage that dispatched it.
//!
//! A closed scope merges its counters into the capture it was entered
//! under ([`Captured::alloc`](crate::Captured::alloc)) — which is what
//! puts `mem` columns next to `EXPLAIN ANALYZE`'s per-stage wall times.
//! Scopes entered outside any capture report only through
//! [`AllocScope::stats`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ctx::Capture;

/// The counting allocator. Installed by `treequery-obs` as the process
/// `#[global_allocator]`; do not install a second one.
pub struct CountingAlloc;

/// Fast-path switch: mirrors `ENABLE_DEPTH > 0`. One relaxed load per
/// allocation when accounting is off.
static ACCOUNTING: AtomicBool = AtomicBool::new(false);
/// Reference count of active [`AccountingGuard`]s.
static ENABLE_DEPTH: AtomicUsize = AtomicUsize::new(0);

// Process-wide totals, maintained only while accounting is on.
static G_ALLOCS: AtomicU64 = AtomicU64::new(0);
static G_FREES: AtomicU64 = AtomicU64::new(0);
static G_BYTES: AtomicU64 = AtomicU64::new(0);
static G_FREED: AtomicU64 = AtomicU64::new(0);
static G_LIVE: AtomicI64 = AtomicI64::new(0);
static G_PEAK: AtomicI64 = AtomicI64::new(0);

/// Per-scope counters, shared across threads (pool workers charge the
/// submitting stage's cell through the propagated handle).
#[derive(Debug)]
struct ScopeCell {
    name: &'static str,
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

impl ScopeCell {
    fn new(name: &'static str) -> ScopeCell {
        ScopeCell {
            name,
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    fn charge_alloc(&self, size: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        let live = self.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn charge_dealloc(&self, size: u64) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.freed.fetch_add(size, Ordering::Relaxed);
        self.live.fetch_sub(size as i64, Ordering::Relaxed);
    }

    fn stats(&self) -> ScopeStats {
        ScopeStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            freed_bytes: self.freed.load(Ordering::Relaxed),
            peak_live: self.peak.load(Ordering::Relaxed).max(0) as u64,
        }
    }
}

/// A snapshot of one attribution scope's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Allocations charged to the scope.
    pub allocs: u64,
    /// Deallocations charged to the scope.
    pub frees: u64,
    /// Bytes allocated while the scope was innermost.
    pub bytes: u64,
    /// Bytes freed while the scope was innermost.
    pub freed_bytes: u64,
    /// Peak of the scope's own net live bytes (allocated − freed within
    /// the scope; clamped at zero — a scope that only frees reports 0).
    pub peak_live: u64,
}

impl ScopeStats {
    pub(crate) fn merge(&mut self, other: &ScopeStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.bytes += other.bytes;
        self.freed_bytes += other.freed_bytes;
        // Scopes with the same name are sequenced or concurrent; either
        // way the max is the honest upper envelope we can keep after the
        // cells are gone.
        self.peak_live = self.peak_live.max(other.peak_live);
    }
}

/// Process-wide allocation totals (valid while accounting is on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Total allocations.
    pub allocs: u64,
    /// Total deallocations.
    pub frees: u64,
    /// Total bytes allocated.
    pub bytes: u64,
    /// Total bytes freed.
    pub freed_bytes: u64,
    /// Currently live bytes (allocated − freed since accounting began;
    /// clamped at zero).
    pub live_bytes: u64,
    /// Peak of `live_bytes` since the last [`reset_peak_live`].
    pub peak_live: u64,
}

std::thread_local! {
    /// The innermost attribution scope on this thread: the allocator's
    /// fast-path copy of the current context's scope. A raw pointer so
    /// the allocation hot path never touches a type with a destructor;
    /// validity is guaranteed by the [`AllocScope`] or context frame
    /// that set it (the pointer is restored before that frame releases
    /// its `Arc`).
    static CURRENT: Cell<*const ScopeCell> = const { Cell::new(std::ptr::null()) };
}

// `inline(never)`: keeps the TLS access and its lazy-init check out of
// the allocator's disabled fast path, which must stay a bare
// load-test-branch around the `System` call.
#[inline(never)]
fn charge_alloc(size: usize) {
    let size = size as u64;
    G_ALLOCS.fetch_add(1, Ordering::Relaxed);
    G_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = G_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    G_PEAK.fetch_max(live, Ordering::Relaxed);
    let cell = CURRENT.with(Cell::get);
    if !cell.is_null() {
        // SAFETY: non-null means an AllocScope or context frame on this
        // thread is alive and holds the Arc; it restores the pointer
        // before dropping it.
        unsafe { (*cell).charge_alloc(size) };
    }
}

#[inline(never)]
fn charge_dealloc(size: usize) {
    let size = size as u64;
    G_FREES.fetch_add(1, Ordering::Relaxed);
    G_FREED.fetch_add(size, Ordering::Relaxed);
    G_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    let cell = CURRENT.with(Cell::get);
    if !cell.is_null() {
        // SAFETY: as in `charge_alloc`.
        unsafe { (*cell).charge_dealloc(size) };
    }
}

// SAFETY: forwards every operation to `System`, only adding counter
// updates that never allocate, so `GlobalAlloc`'s contract is inherited.
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            charge_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            charge_alloc(layout.size());
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ACCOUNTING.load(Ordering::Relaxed) {
            charge_dealloc(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            // One grow/shrink = one allocation of the new block plus one
            // free of the old, so `bytes` totals remain "every byte the
            // allocator was asked for" (Vec's doubling shows up exactly).
            charge_alloc(new_size);
            charge_dealloc(layout.size());
        }
        p
    }
}

/// Turns accounting on for the guard's lifetime. Nestable and
/// refcounted: accounting stays on until the outermost guard drops.
#[derive(Debug)]
pub struct AccountingGuard(());

impl AccountingGuard {
    /// Enables allocation accounting (process-wide).
    pub fn begin() -> AccountingGuard {
        if ENABLE_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
            ACCOUNTING.store(true, Ordering::SeqCst);
        }
        AccountingGuard(())
    }
}

impl Drop for AccountingGuard {
    fn drop(&mut self) {
        if ENABLE_DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
            ACCOUNTING.store(false, Ordering::SeqCst);
        }
    }
}

/// Whether allocation accounting is currently on.
#[inline]
pub fn accounting() -> bool {
    ACCOUNTING.load(Ordering::Relaxed)
}

/// The process-wide totals. Counters only move while accounting is on,
/// so a `snapshot → work → snapshot` delta brackets exactly the
/// accounted region.
pub fn global_stats() -> GlobalStats {
    GlobalStats {
        allocs: G_ALLOCS.load(Ordering::Relaxed),
        frees: G_FREES.load(Ordering::Relaxed),
        bytes: G_BYTES.load(Ordering::Relaxed),
        freed_bytes: G_FREED.load(Ordering::Relaxed),
        live_bytes: G_LIVE.load(Ordering::Relaxed).max(0) as u64,
        peak_live: G_PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Resets the global peak-live watermark to the current live level, so
/// the next [`global_stats`] read reports the peak *since this call* —
/// the "how much extra memory did this query need" question E21 asks.
pub fn reset_peak_live() {
    G_PEAK.store(G_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// An attribution scope: while it is the innermost scope on a thread,
/// that thread's allocations are charged to `name`. Inert (and free
/// beyond one relaxed load) when accounting is off.
#[derive(Debug)]
pub struct AllocScope {
    /// `Some` only while accounting was on at entry.
    cell: Option<Arc<ScopeCell>>,
    prev: *const ScopeCell,
    /// The capture the scope's totals merge into when it closes.
    capture: Option<Capture>,
}

impl AllocScope {
    /// Pushes an attribution scope named `name` onto this thread's
    /// stack. Use the span layer's stage names so `EXPLAIN ANALYZE` can
    /// join `mem` columns onto the measured stage tree.
    pub fn enter(name: &'static str) -> AllocScope {
        if !ACCOUNTING.load(Ordering::Relaxed) {
            return AllocScope {
                cell: None,
                prev: std::ptr::null(),
                capture: None,
            };
        }
        let capture = crate::ctx::with_current(|c| c.capture.clone());
        // The Arc itself is allocated before the scope becomes current,
        // so a scope never charges its own bookkeeping to itself.
        let cell = Arc::new(ScopeCell::new(name));
        let prev = CURRENT.with(|c| c.replace(Arc::as_ptr(&cell)));
        AllocScope {
            cell: Some(cell),
            prev,
            capture,
        }
    }

    /// The scope's own counters so far (self-exclusive: bytes charged
    /// while a nested scope was innermost belong to the nested scope).
    pub fn stats(&self) -> ScopeStats {
        self.cell
            .as_ref()
            .map_or(ScopeStats::default(), |c| c.stats())
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            CURRENT.with(|c| c.set(self.prev));
            if let Some(capture) = &self.capture {
                // Observer bookkeeping is charged to no scope.
                let _unattributed = install(None);
                capture.merge_alloc(cell.name, &cell.stats());
            }
        }
    }
}

/// A cloneable handle to a live scope, for carrying attribution across
/// threads (the worker pool captures one at submission).
#[derive(Clone, Debug)]
pub struct ScopeHandle(Arc<ScopeCell>);

/// The innermost scope of the current thread, if any. The handle keeps
/// the scope's counters alive independently of the originating
/// [`AllocScope`] guard.
pub fn current_scope() -> Option<ScopeHandle> {
    let ptr = CURRENT.with(Cell::get);
    if ptr.is_null() {
        return None;
    }
    // SAFETY: a non-null CURRENT means the AllocScope or context frame
    // that set it is still alive on this thread (they restore the pointer
    // before releasing their Arc), so the strong count is ≥ 1 and the
    // pointer came from `Arc::as_ptr`.
    unsafe {
        Arc::increment_strong_count(ptr);
        Some(ScopeHandle(Arc::from_raw(ptr)))
    }
}

/// Makes `handle`'s scope (or, for `None`, no scope) this thread's
/// innermost one until the returned guard drops. This is how a
/// [`QueryCtx`](crate::QueryCtx) charges pool-worker allocations to the
/// submitting stage, and how spans and captures keep their own
/// bookkeeping out of every scope.
pub(crate) fn install(handle: Option<&ScopeHandle>) -> Installed {
    let ptr = handle.map_or(std::ptr::null(), |h| Arc::as_ptr(&h.0));
    Installed(CURRENT.with(|c| c.replace(ptr)))
}

/// Restores the scope [`install`] replaced.
pub(crate) struct Installed(*const ScopeCell);

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the accounting tests: the enable switch is
    /// process-global, and `disabled_scopes_are_inert` needs it off.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scopes_are_inert() {
        let _l = lock();
        assert!(!accounting(), "tests serialize on TEST_LOCK");
        let s = AllocScope::enter("test.inert");
        let _v: Vec<u64> = Vec::with_capacity(64);
        assert_eq!(s.stats(), ScopeStats::default());
    }

    #[test]
    fn scope_attributes_this_threads_allocations() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let scope = AllocScope::enter("test.attrib");
        let v: Vec<u8> = Vec::with_capacity(4096);
        let stats = scope.stats();
        drop(v);
        assert!(stats.allocs >= 1, "{stats:?}");
        assert!(stats.bytes >= 4096, "{stats:?}");
        assert!(stats.peak_live >= 4096, "{stats:?}");
        let after = scope.stats();
        assert!(after.frees >= 1 && after.freed_bytes >= 4096, "{after:?}");
    }

    #[test]
    fn nesting_is_self_exclusive() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let outer = AllocScope::enter("test.outer");
        {
            let inner = AllocScope::enter("test.inner");
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            assert!(inner.stats().bytes >= 1 << 16);
            drop(v);
        }
        // The inner scope's 64 KiB were not charged to the outer scope.
        assert!(outer.stats().bytes < 1 << 16, "{:?}", outer.stats());
    }

    #[test]
    fn closed_scopes_merge_into_their_capture() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let ((), captured) = crate::capture(|| {
            for _ in 0..2 {
                let _s = AllocScope::enter("test.totals");
                let _v: Vec<u8> = Vec::with_capacity(2048);
            }
        });
        let stats = captured
            .alloc_stats("test.totals")
            .expect("closed scope recorded");
        assert!(stats.bytes >= 2 * 2048, "{stats:?}");
        // Outside a capture, a closed scope reports only through stats().
        let _s = AllocScope::enter("test.uncaptured");
        assert!(!crate::recording());
    }

    #[test]
    fn contexts_carry_attribution_across_threads() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let scope = AllocScope::enter("test.cross");
        let ctx = crate::QueryCtx::current();
        assert!(ctx.alloc.is_some(), "the context carries the scope");
        std::thread::scope(|s| {
            s.spawn(|| {
                ctx.enter(|| {
                    let _v: Vec<u8> = Vec::with_capacity(8192);
                });
            });
        });
        assert!(scope.stats().bytes >= 8192, "{:?}", scope.stats());
    }

    #[test]
    fn global_stats_move_only_while_accounting() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let before = global_stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 14);
        let after = global_stats();
        drop(v);
        assert!(after.bytes >= before.bytes + (1 << 14));
        assert!(after.allocs > before.allocs);
    }
}
