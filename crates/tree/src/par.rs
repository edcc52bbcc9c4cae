//! Pre-order range partitioning of the axis sweeps.
//!
//! The carry-axis sweeps behind [`Axis::image`] are left-to-right (or
//! right-to-left) scans of every pre-order rank carrying a tiny amount of
//! state: the maximum `pre_end` of a marked node seen so far
//! (`Descendant`), or the minimum (`Following`) or maximum (`Preceding`)
//! post rank. All of these carries are folds of an **associative**
//! operator (max / min), so a sweep over `0..n` splits into independent
//! sweeps over pre-order ranges:
//!
//! 1. each range computes its own carry contribution in parallel
//!    ([`Axis::sweep_carry`]),
//! 2. a cheap sequential prefix (forward axes) or suffix (`Preceding`)
//!    fold combines them into the carry *entering* each range
//!    ([`incoming_carries`]),
//! 3. each range then computes its slice of the image in parallel
//!    ([`Axis::image_range`]), and the slices are ORed together.
//!
//! The OR-merge is deterministic: each output slice is a [`NodeSet`]
//! bitset, and bitwise OR is commutative, so the union over ranges is
//! byte-identical to the sequential [`Axis::image`] regardless of which
//! worker finished first. The per-range/whole-sweep agreement is
//! property-tested over every carry axis in this module.
//!
//! Axes without carries ([`CarryFlow::None`]: the child, parent, sibling,
//! self and ancestor axes) have no range form. Their sequential image
//! walks only the marked set (or makes one prefix-count pass), while a
//! range partition would scan every rank, so they never fan out.

use std::ops::Range;

use crate::axis::Axis;
use crate::nodeset::NodeSet;
use crate::tree::Tree;

/// Splits `0..n` (pre-order ranks) into at most `chunks` contiguous,
/// non-empty, balanced ranges covering all of `0..n`. Returns fewer
/// ranges when `n < chunks`, and none when `n == 0`.
pub fn pre_ranges(n: usize, chunks: usize) -> Vec<Range<u32>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start as u32..(start + len) as u32);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Number of ranges [`pre_ranges`] would return: `min(chunks, n)` (zero
/// for the empty tree). Pairs with [`pre_range_at`] for callers that want
/// the partition without materializing a `Vec`.
pub fn pre_range_count(n: usize, chunks: usize) -> usize {
    if n == 0 {
        0
    } else {
        chunks.clamp(1, n)
    }
}

/// The `i`-th range of the [`pre_ranges`] partition, computed
/// arithmetically (allocation-free). `i` must be below
/// [`pre_range_count`].
pub fn pre_range_at(n: usize, chunks: usize, i: usize) -> Range<u32> {
    let k = pre_range_count(n, chunks);
    debug_assert!(i < k);
    let base = n / k;
    let extra = n % k;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start as u32..(start + len) as u32
}

/// The direction the sweep state flows between pre-order ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CarryFlow {
    /// No inter-range state: the axis partitions its marked input.
    None,
    /// State flows left→right in pre order (`Descendant`, `Following`).
    Forward,
    /// State flows right→left in pre order (`Preceding`).
    Backward,
}

/// The associative sweep state carried between pre-order ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepCarry {
    /// For axes with [`CarryFlow::None`].
    None,
    /// Maximum `pre_end` of a marked node (identity −1): `Descendant`,
    /// `DescendantOrSelf`.
    MaxEnd(i64),
    /// Minimum post rank of a marked node (identity `u32::MAX`):
    /// `Following`.
    MinPost(u32),
    /// Maximum post rank of a marked node (identity −1): `Preceding`.
    MaxPost(i64),
}

impl SweepCarry {
    /// Combines two carries of the same kind (associative; identity is
    /// [`Axis::carry_identity`]). For [`CarryFlow::Forward`] axes `self`
    /// is the earlier range, for [`CarryFlow::Backward`] the later one —
    /// max/min are commutative so the distinction is immaterial.
    pub fn combine(self, other: SweepCarry) -> SweepCarry {
        match (self, other) {
            (SweepCarry::None, SweepCarry::None) => SweepCarry::None,
            (SweepCarry::MaxEnd(a), SweepCarry::MaxEnd(b)) => SweepCarry::MaxEnd(a.max(b)),
            (SweepCarry::MinPost(a), SweepCarry::MinPost(b)) => SweepCarry::MinPost(a.min(b)),
            (SweepCarry::MaxPost(a), SweepCarry::MaxPost(b)) => SweepCarry::MaxPost(a.max(b)),
            (a, b) => panic!("combined mismatched sweep carries {a:?} and {b:?}"),
        }
    }
}

/// The carry entering each range, given every range's own contribution
/// (in pre-order range order). A prefix fold for forward axes, a suffix
/// fold for backward ones, all identities for carry-free axes.
pub fn incoming_carries(axis: Axis, chunk_carries: &[SweepCarry]) -> Vec<SweepCarry> {
    let k = chunk_carries.len();
    let mut out = vec![axis.carry_identity(); k];
    match axis.carry_flow() {
        CarryFlow::None => {}
        CarryFlow::Forward => {
            let mut acc = axis.carry_identity();
            for i in 0..k {
                out[i] = acc;
                acc = acc.combine(chunk_carries[i]);
            }
        }
        CarryFlow::Backward => {
            let mut acc = axis.carry_identity();
            for i in (0..k).rev() {
                out[i] = acc;
                acc = acc.combine(chunk_carries[i]);
            }
        }
    }
    out
}

/// In-place variant of [`incoming_carries`]: rewrites each range's own
/// contribution into the carry *entering* that range, without allocating.
pub fn incoming_carries_in_place(axis: Axis, carries: &mut [SweepCarry]) {
    match axis.carry_flow() {
        CarryFlow::None => {
            for c in carries.iter_mut() {
                *c = axis.carry_identity();
            }
        }
        CarryFlow::Forward => {
            let mut acc = axis.carry_identity();
            for c in carries.iter_mut() {
                let own = *c;
                *c = acc;
                acc = acc.combine(own);
            }
        }
        CarryFlow::Backward => {
            let mut acc = axis.carry_identity();
            for c in carries.iter_mut().rev() {
                let own = *c;
                *c = acc;
                acc = acc.combine(own);
            }
        }
    }
}

impl Axis {
    /// How this axis's sweep state flows between pre-order ranges.
    pub fn carry_flow(self) -> CarryFlow {
        match self {
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Following => CarryFlow::Forward,
            Axis::Preceding => CarryFlow::Backward,
            _ => CarryFlow::None,
        }
    }

    /// The identity element of this axis's carry (the carry entering the
    /// first range swept).
    pub fn carry_identity(self) -> SweepCarry {
        match self {
            Axis::Descendant | Axis::DescendantOrSelf => SweepCarry::MaxEnd(-1),
            Axis::Following => SweepCarry::MinPost(u32::MAX),
            Axis::Preceding => SweepCarry::MaxPost(-1),
            _ => SweepCarry::None,
        }
    }

    /// The carry *contribution* of one pre-order range: the fold of the
    /// sweep update over the marked nodes whose pre rank lies in
    /// `range`. Ranges can compute this independently (phase 1 of the
    /// parallel sweep).
    pub fn sweep_carry(self, t: &Tree, s: &NodeSet, range: Range<u32>) -> SweepCarry {
        debug_assert!(range.end as usize <= t.len());
        match self {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let mut max_end: i64 = -1;
                for rank in range {
                    let v = t.node_at_pre(rank);
                    if s.contains(v) {
                        max_end = max_end.max(i64::from(t.pre_end(v)));
                    }
                }
                SweepCarry::MaxEnd(max_end)
            }
            Axis::Following => {
                let mut min_post = u32::MAX;
                for rank in range {
                    let v = t.node_at_pre(rank);
                    if s.contains(v) {
                        min_post = min_post.min(t.post(v));
                    }
                }
                SweepCarry::MinPost(min_post)
            }
            Axis::Preceding => {
                let mut max_post: i64 = -1;
                for rank in range {
                    let v = t.node_at_pre(rank);
                    if s.contains(v) {
                        max_post = max_post.max(i64::from(t.post(v)));
                    }
                }
                SweepCarry::MaxPost(max_post)
            }
            _ => SweepCarry::None,
        }
    }

    /// One range's slice of [`Axis::image`] for a carry axis: with the
    /// correct incoming `carry` (from [`incoming_carries`]), the bitwise
    /// OR of the slices over a partition of `0..n` equals the whole image
    /// (phase 2 of the parallel sweep; property-tested below). Slices are
    /// the *output* ranks in `range`.
    ///
    /// # Panics
    /// For axes without a carry ([`CarryFlow::None`]), which have no
    /// range form.
    pub fn image_range(
        self,
        t: &Tree,
        s: &NodeSet,
        range: Range<u32>,
        carry: SweepCarry,
    ) -> NodeSet {
        let mut out = NodeSet::empty(t.len());
        self.image_range_into(t, s, range, carry, &mut out);
        out
    }

    /// Writes one range's image slice into `out` (cleared first). With a
    /// caller-owned buffer a warmed-up call performs no allocations —
    /// this is the form the parallel executor's chunk tasks run.
    ///
    /// # Panics
    /// For axes without a carry ([`CarryFlow::None`]).
    pub fn image_range_into(
        self,
        t: &Tree,
        s: &NodeSet,
        range: Range<u32>,
        carry: SweepCarry,
        out: &mut NodeSet,
    ) {
        let n = t.len();
        debug_assert_eq!(s.universe(), n);
        debug_assert_eq!(out.universe(), n);
        debug_assert!(range.end as usize <= n);
        debug_assert_eq!(carry, incoming_kind_check(self, carry));
        out.clear();
        match self {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let SweepCarry::MaxEnd(mut max_end) = carry else {
                    unreachable!("kind checked above")
                };
                let or_self = self == Axis::DescendantOrSelf;
                for rank in range {
                    let v = t.node_at_pre_unchecked(rank);
                    if i64::from(rank) <= max_end {
                        out.insert(v);
                    }
                    if s.contains(v) {
                        max_end = max_end.max(i64::from(t.pre_end_unchecked(v)));
                        if or_self {
                            out.insert(v);
                        }
                    }
                }
            }
            Axis::Following => {
                let SweepCarry::MinPost(mut min_post) = carry else {
                    unreachable!("kind checked above")
                };
                for rank in range {
                    let v = t.node_at_pre_unchecked(rank);
                    if min_post < t.post_unchecked(v) {
                        out.insert(v);
                    }
                    if s.contains(v) {
                        min_post = min_post.min(t.post_unchecked(v));
                    }
                }
            }
            Axis::Preceding => {
                let SweepCarry::MaxPost(mut max_post) = carry else {
                    unreachable!("kind checked above")
                };
                for rank in range.rev() {
                    let v = t.node_at_pre_unchecked(rank);
                    if max_post > i64::from(t.post_unchecked(v)) {
                        out.insert(v);
                    }
                    if s.contains(v) {
                        max_post = max_post.max(i64::from(t.post_unchecked(v)));
                    }
                }
            }
            _ => panic!("{self} has no carry, hence no range sweep"),
        }
    }
}

/// Debug-only: the carry passed to [`Axis::image_range`] must be of the
/// axis's own kind.
fn incoming_kind_check(axis: Axis, carry: SweepCarry) -> SweepCarry {
    debug_assert_eq!(
        std::mem::discriminant(&carry),
        std::mem::discriminant(&axis.carry_identity()),
        "carry kind must match the axis ({axis})"
    );
    carry
}

/// Sequential reference driver for the partitioned sweep: computes
/// [`Axis::image`] by splitting into `chunks` pre-order ranges and
/// ORing the per-range slices. The parallel executor in
/// `treequery-core` runs the same three phases with phases 1 and 3 on
/// the worker pool; this function exists so the partitioning itself can
/// be tested (and differentially compared) without a pool. Axes without
/// a carry take the sequential image, as the executor does.
pub fn image_via_ranges(axis: Axis, t: &Tree, s: &NodeSet, chunks: usize) -> NodeSet {
    if axis.carry_flow() == CarryFlow::None {
        return axis.image(t, s);
    }
    let ranges = pre_ranges(t.len(), chunks);
    let carries: Vec<SweepCarry> = ranges
        .iter()
        .map(|r| axis.sweep_carry(t, s, r.clone()))
        .collect();
    let incoming = incoming_carries(axis, &carries);
    let mut out = NodeSet::empty(t.len());
    for (r, c) in ranges.iter().zip(incoming) {
        out.union_with(&axis.image_range(t, s, r.clone(), c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_recursive_tree;
    use crate::term::parse_term;
    use crate::tree::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pre_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 3, 7, 64, 65, 1000] {
            for chunks in [1usize, 2, 3, 8, 1000, 2000] {
                let ranges = pre_ranges(n, chunks);
                if n == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= chunks.max(1));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end as usize, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                for r in &ranges {
                    assert!(r.start < r.end, "empty range in {ranges:?}");
                }
                let lens: Vec<u32> = ranges.iter().map(|r| r.end - r.start).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced: {lens:?}");
            }
        }
    }

    #[test]
    fn pre_range_at_matches_pre_ranges() {
        for n in [0usize, 1, 2, 3, 7, 64, 65, 1000] {
            for chunks in [1usize, 2, 3, 8, 1000, 2000] {
                let ranges = pre_ranges(n, chunks);
                assert_eq!(pre_range_count(n, chunks), ranges.len());
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(
                        pre_range_at(n, chunks, i),
                        *r,
                        "n={n} chunks={chunks} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_carries_match_allocating_fold() {
        let t = parse_term("a(b(c d(e) f) g(h(i j) k) l)").unwrap();
        let s = NodeSet::from_iter(t.len(), t.nodes().filter(|v| v.0 % 2 == 0));
        for axis in [
            Axis::Descendant,
            Axis::Following,
            Axis::Preceding,
            Axis::Child,
        ] {
            for chunks in [1usize, 2, 5] {
                let ranges = pre_ranges(t.len(), chunks);
                let mut carries: Vec<SweepCarry> = ranges
                    .iter()
                    .map(|r| axis.sweep_carry(&t, &s, r.clone()))
                    .collect();
                let expected = incoming_carries(axis, &carries);
                incoming_carries_in_place(axis, &mut carries);
                assert_eq!(carries, expected, "{axis} with {chunks} chunks");
            }
        }
    }

    /// The axes with a range sweep.
    const CARRY_AXES: [Axis; 4] = [
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
        Axis::Preceding,
    ];

    #[test]
    fn image_range_into_reuses_buffers() {
        let t = parse_term("a(b(c d(e) f) g(h(i j) k) l)").unwrap();
        let n = t.len();
        let s = NodeSet::from_iter(n, t.nodes().filter(|v| v.0 % 3 == 0));
        let mut out = NodeSet::empty(n);
        for axis in CARRY_AXES {
            let whole = axis.image(&t, &s);
            let mut merged = NodeSet::empty(n);
            let k = pre_range_count(n, 3);
            let mut carries: Vec<SweepCarry> = (0..k)
                .map(|i| axis.sweep_carry(&t, &s, pre_range_at(n, 3, i)))
                .collect();
            incoming_carries_in_place(axis, &mut carries);
            for (i, &c) in carries.iter().enumerate() {
                // Deliberately reuse dirty buffers across chunks.
                axis.image_range_into(&t, &s, pre_range_at(n, 3, i), c, &mut out);
                merged.union_with(&out);
            }
            assert_eq!(merged, whole, "{axis}");
        }
    }

    #[test]
    fn carry_axes_are_exactly_those_with_a_carry() {
        for axis in Axis::ALL {
            assert_eq!(
                CARRY_AXES.contains(&axis),
                axis.carry_flow() != CarryFlow::None,
                "{axis}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no range sweep")]
    fn local_axes_have_no_range_sweep() {
        let t = parse_term("a(b c)").unwrap();
        let s = NodeSet::full(t.len());
        Axis::Child.image_range(&t, &s, 0..t.len() as u32, SweepCarry::None);
    }

    #[test]
    fn carry_combine_is_associative_with_identity() {
        let carries = [
            (Axis::Descendant, vec![-1i64, 0, 5, 17]),
            (Axis::Preceding, vec![-1i64, 0, 3, 9]),
        ];
        for (axis, vals) in carries {
            let wrap = |v: i64| match axis {
                Axis::Descendant => SweepCarry::MaxEnd(v),
                Axis::Preceding => SweepCarry::MaxPost(v),
                _ => unreachable!(),
            };
            for &a in &vals {
                assert_eq!(axis.carry_identity().combine(wrap(a)), wrap(a));
                for &b in &vals {
                    for &c in &vals {
                        assert_eq!(
                            wrap(a).combine(wrap(b)).combine(wrap(c)),
                            wrap(a).combine(wrap(b).combine(wrap(c)))
                        );
                    }
                }
            }
        }
        let mp = |v: u32| SweepCarry::MinPost(v);
        assert_eq!(Axis::Following.carry_identity().combine(mp(4)), mp(4));
        assert_eq!(mp(4).combine(mp(2)), mp(2));
    }

    /// The partitioned sweep must reproduce `Axis::image` exactly, for
    /// every carry axis, over structured and random trees, many source
    /// sets and chunk counts (including chunks > n).
    #[test]
    fn image_via_ranges_matches_image() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0019);
        let mut trees = vec![
            parse_term("a(b(c d(e) f) g(h(i j) k) l)").unwrap(),
            parse_term("a").unwrap(),
            crate::generate::deep_path(33, "p"),
            crate::generate::star(40, "s"),
        ];
        for n in [17usize, 64, 129] {
            trees.push(random_recursive_tree(&mut rng, n, &["a", "b", "c"]));
        }
        for t in &trees {
            let n = t.len();
            let mut sources = vec![NodeSet::empty(n), NodeSet::full(n)];
            sources.push(NodeSet::singleton(n, t.root()));
            if n > 1 {
                sources.push(NodeSet::singleton(n, t.node_at_pre(n as u32 - 1)));
            }
            for _ in 0..4 {
                let density = rng.gen_range(1..=4);
                sources.push(NodeSet::from_iter(
                    n,
                    (0..n as u32)
                        .filter(|_| rng.gen_range(0..4) < density)
                        .map(NodeId),
                ));
            }
            for axis in CARRY_AXES {
                for s in &sources {
                    let whole = axis.image(t, s);
                    for chunks in [1usize, 2, 3, 8, n + 3] {
                        let split = image_via_ranges(axis, t, s, chunks);
                        assert_eq!(split, whole, "{axis} over {n} nodes with {chunks} chunks");
                    }
                }
            }
        }
    }
}
