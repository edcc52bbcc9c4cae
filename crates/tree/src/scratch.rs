//! Thread-local scratch pools for the allocation-free hot kernels.
//!
//! Every linear-time evaluator in this workspace needs short-lived working
//! memory: bitsets for axis images, prefix-count arrays, staging vectors
//! for structural joins. Allocating those per call shows up directly in the
//! `obs::alloc` accounting and defeats the scan-friendly storage layout, so
//! this module pools them per thread. The discipline is strictly
//! take/put-balanced: a kernel takes buffers at entry and puts every one of
//! them back before returning (or hands the buffer to its caller, who puts
//! it back). After a warm-up pass over a given tree, the pools have reached
//! their high-water capacity and every subsequent take is allocation-free —
//! which is exactly what `tests/zero_alloc.rs` gates.
//!
//! Pools are LIFO stacks. Kernels that take several buffers in a loop put
//! them back in *reverse* order so that the next identical run pops buffers
//! in the same sequence it did during warm-up; capacities then line up
//! deterministically regardless of how work was interleaved in between.
//!
//! Puts are capped: a buffer whose capacity exceeds [`MAX_POOLED_BYTES`]
//! is shrunk before it re-enters the pool, so one query against a one-off
//! huge document does not pin that document's working set for the process
//! lifetime. The cap is far above anything the steady-state benchmarks
//! touch, so the zero-allocation gate is unaffected.

use std::cell::RefCell;
use std::mem::size_of;

use crate::nodeset::NodeSet;
use crate::par::SweepCarry;
use crate::tree::NodeId;

#[derive(Default)]
struct Pool {
    words: Vec<Vec<u64>>,
    u32s: Vec<Vec<u32>>,
    nodes: Vec<Vec<NodeId>>,
    pairs: Vec<Vec<(u32, u32)>>,
    carries: Vec<Vec<SweepCarry>>,
    sets: Vec<Vec<NodeSet>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Upper bound on the capacity (in bytes) a single pooled buffer may
/// retain. Buffers above the cap are shrunk on put.
pub const MAX_POOLED_BYTES: usize = 1 << 20;

/// Shrink-on-put: clamps an oversized buffer's capacity before pooling.
/// The buffer is cleared first (a capped buffer's contents are garbage by
/// contract anyway — every take clears).
fn shrink<T>(v: &mut Vec<T>) {
    let max_len = MAX_POOLED_BYTES / size_of::<T>().max(1);
    if v.capacity() > max_len {
        v.clear();
        v.shrink_to(max_len);
    }
}

/// Takes an empty [`NodeSet`] over `universe` nodes from the pool.
pub fn take_set(universe: usize) -> NodeSet {
    let words = POOL
        .with(|p| p.borrow_mut().words.pop())
        .unwrap_or_default();
    NodeSet::from_recycled(words, universe)
}

/// Takes a full [`NodeSet`] over `universe` nodes from the pool.
pub fn take_full(universe: usize) -> NodeSet {
    let mut s = take_set(universe);
    s.make_full();
    s
}

/// Returns a set's word buffer to the pool.
pub fn put_set(s: NodeSet) {
    let mut words = s.into_words();
    shrink(&mut words);
    POOL.with(|p| p.borrow_mut().words.push(words));
}

/// Number of set word buffers pooled on this thread. Balanced
/// take/put use keeps it flat across identical runs; a put of a set that
/// was never taken grows it by one.
pub fn pooled_sets() -> usize {
    POOL.with(|p| p.borrow().words.len())
}

/// Takes an empty `Vec<u32>` (capacity retained from earlier puts).
pub fn take_u32s() -> Vec<u32> {
    let mut v = POOL.with(|p| p.borrow_mut().u32s.pop()).unwrap_or_default();
    v.clear();
    v
}

/// Returns a `Vec<u32>` to the pool.
pub fn put_u32s(mut v: Vec<u32>) {
    shrink(&mut v);
    POOL.with(|p| p.borrow_mut().u32s.push(v));
}

/// Takes an empty `Vec<NodeId>`.
pub fn take_nodes() -> Vec<NodeId> {
    let mut v = POOL
        .with(|p| p.borrow_mut().nodes.pop())
        .unwrap_or_default();
    v.clear();
    v
}

/// Returns a `Vec<NodeId>` to the pool.
pub fn put_nodes(mut v: Vec<NodeId>) {
    shrink(&mut v);
    POOL.with(|p| p.borrow_mut().nodes.push(v));
}

/// Takes an empty `Vec<(u32, u32)>` (join stacks, posting staging).
pub fn take_pairs() -> Vec<(u32, u32)> {
    let mut v = POOL
        .with(|p| p.borrow_mut().pairs.pop())
        .unwrap_or_default();
    v.clear();
    v
}

/// Returns a `Vec<(u32, u32)>` to the pool.
pub fn put_pairs(mut v: Vec<(u32, u32)>) {
    shrink(&mut v);
    POOL.with(|p| p.borrow_mut().pairs.push(v));
}

/// Takes an empty `Vec<SweepCarry>` (per-chunk sweep carries).
pub fn take_carries() -> Vec<SweepCarry> {
    let mut v = POOL
        .with(|p| p.borrow_mut().carries.pop())
        .unwrap_or_default();
    v.clear();
    v
}

/// Returns a `Vec<SweepCarry>` to the pool.
pub fn put_carries(mut v: Vec<SweepCarry>) {
    shrink(&mut v);
    POOL.with(|p| p.borrow_mut().carries.push(v));
}

/// Takes an empty `Vec<NodeSet>` container (the member sets are taken
/// separately via [`take_set`]).
pub fn take_set_vec() -> Vec<NodeSet> {
    let mut v = POOL.with(|p| p.borrow_mut().sets.pop()).unwrap_or_default();
    debug_assert!(v.is_empty());
    v.clear();
    v
}

/// Returns a `Vec<NodeSet>` to the pool, recycling its member sets too
/// (drained in reverse so the next run pops them in take order).
pub fn put_set_vec(mut v: Vec<NodeSet>) {
    while let Some(s) = v.pop() {
        put_set(s);
    }
    shrink(&mut v);
    POOL.with(|p| p.borrow_mut().sets.push(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_round_trips_capacity() {
        let mut s = take_set(130);
        s.insert(NodeId(129));
        put_set(s);
        let s2 = take_set(130);
        assert!(s2.is_empty(), "recycled sets come back cleared");
        assert_eq!(s2.universe(), 130);
        put_set(s2);

        let mut v = take_pairs();
        v.push((1, 2));
        let cap = v.capacity();
        put_pairs(v);
        let v2 = take_pairs();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap);
        put_pairs(v2);
    }

    #[test]
    fn oversized_buffers_are_shrunk_on_put() {
        // A one-off huge take must not pin its capacity in the pool.
        let cap_u32 = MAX_POOLED_BYTES / size_of::<u32>();
        let mut v = take_u32s();
        v.reserve(4 * cap_u32);
        assert!(v.capacity() > cap_u32);
        put_u32s(v);
        let v2 = take_u32s();
        assert!(
            v2.capacity() <= cap_u32,
            "pooled capacity {} exceeds the {} cap",
            v2.capacity() * size_of::<u32>(),
            MAX_POOLED_BYTES
        );
        put_u32s(v2);

        // Bitset word buffers go through the same cap.
        let huge = take_set(64 * MAX_POOLED_BYTES);
        put_set(huge);
        let w = take_set(64);
        assert!(w.into_words().capacity() <= MAX_POOLED_BYTES / size_of::<u64>());

        // Buffers at or under the cap keep their capacity (the warm-up
        // contract the zero-alloc gate relies on).
        let mut small = take_pairs();
        small.reserve(1024);
        let cap = small.capacity();
        put_pairs(small);
        assert!(take_pairs().capacity() >= cap);
    }

    #[test]
    fn set_vec_recycles_members() {
        let mut sets = take_set_vec();
        sets.push(take_set(64));
        sets.push(take_full(64));
        put_set_vec(sets);
        let again = take_set_vec();
        assert!(again.is_empty());
        put_set_vec(again);
    }
}
