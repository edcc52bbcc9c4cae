//! The frozen, fully indexed tree.

use std::fmt;

use crate::label::{LabelInterner, Symbol};

/// Sentinel for "no node" inside the packed arrays.
pub(crate) const NONE: u32 = u32::MAX;

/// Identifier of a tree node (index in creation order, stable across
/// freezing). `NodeId`s of different trees must not be mixed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable unranked ordered labeled tree with all navigational indexes
/// precomputed.
///
/// In the paper's terms this is a structure over the signature
/// τ⁺ = ⟨Dom, Root, Leaf, (Labₐ)ₐ, FirstChild, NextSibling, LastSibling⟩,
/// together with the derived orders `<pre`, `<post`, `<bflr` and the subtree
/// extents that turn all axis membership tests into O(1) arithmetic
/// (Section 2: "a node-labeled tree can be completely represented by one
/// triple (i, j, a)" of pre-index, post-index and label).
///
/// Trees clone cheaply enough for test tooling (all index vectors are
/// copied); the fuzzing subsystem relies on this to mutate and shrink
/// inputs without threading borrows through its pipeline.
#[derive(Clone)]
pub struct Tree {
    pub(crate) interner: LabelInterner,
    pub(crate) parent: Vec<u32>,
    pub(crate) first_child: Vec<u32>,
    pub(crate) last_child: Vec<u32>,
    pub(crate) next_sibling: Vec<u32>,
    pub(crate) prev_sibling: Vec<u32>,
    pub(crate) label: Vec<Symbol>,
    /// Extra labels for multi-labeled nodes (rare; the paper allows multiple
    /// labels for the tractability results), as a CSR column: the extras of
    /// node `v` are `extra_syms[extra_offsets[v] .. extra_offsets[v+1]]`.
    pub(crate) extra_offsets: Vec<u32>,
    pub(crate) extra_syms: Vec<Symbol>,
    /// Rank of each node in pre-order (document order).
    pub(crate) pre: Vec<u32>,
    /// Rank of each node in post-order.
    pub(crate) post: Vec<u32>,
    /// Rank of each node in breadth-first left-to-right order.
    pub(crate) bflr: Vec<u32>,
    /// Depth (root has depth 0).
    pub(crate) depth: Vec<u32>,
    /// Position among siblings (first child has index 0).
    pub(crate) sib_idx: Vec<u32>,
    /// Pre-order rank of the last descendant of each node (the node's own
    /// pre rank if it is a leaf). Descendants of `v` occupy exactly the pre
    /// ranks `pre(v)+1 ..= pre_end(v)`.
    pub(crate) pre_end: Vec<u32>,
    pub(crate) pre_to_node: Vec<NodeId>,
    pub(crate) post_to_node: Vec<NodeId>,
    pub(crate) bflr_to_node: Vec<NodeId>,
    pub(crate) root: NodeId,
    /// Per-label document-order posting lists, as a CSR column indexed by
    /// the dense [`Symbol`] id: nodes carrying label `sym` (primary or
    /// extra), sorted by pre rank, are
    /// `label_postings[label_offsets[sym] .. label_offsets[sym+1]]`.
    pub(crate) label_offsets: Vec<u32>,
    pub(crate) label_postings: Vec<NodeId>,
}

/// One node's hot traversal columns gathered into a packed record: the five
/// structural links, the primary label and the six order/extent ranks. The
/// storage stays struct-of-arrays (each column is scanned independently by
/// the sweeps); this type exists to pin the cache-footprint contract — all
/// per-node hot state fits a single 64-byte cache line.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotNode {
    /// Raw parent link (`NONE` for the root).
    pub parent: u32,
    /// Raw first-child link (`NONE` for leaves).
    pub first_child: u32,
    /// Raw last-child link (`NONE` for leaves).
    pub last_child: u32,
    /// Raw next-sibling link (`NONE` for last siblings).
    pub next_sibling: u32,
    /// Raw previous-sibling link (`NONE` for first siblings).
    pub prev_sibling: u32,
    /// Primary label.
    pub label: Symbol,
    /// Pre-order rank.
    pub pre: u32,
    /// Post-order rank.
    pub post: u32,
    /// Pre-order rank of the last descendant.
    pub pre_end: u32,
    /// Depth (root is 0).
    pub depth: u32,
    /// Position among siblings.
    pub sib_idx: u32,
    /// Breadth-first left-to-right rank.
    pub bflr: u32,
}

const _: () = assert!(
    std::mem::size_of::<HotNode>() <= 64,
    "hot per-node traversal columns must fit one cache line"
);

#[inline]
fn opt(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

impl Tree {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// A tree always has at least a root; this is never true for frozen
    /// trees but kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.label.is_empty()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The label interner owned by this tree.
    #[inline]
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Resolves a label name against this tree's alphabet.
    #[inline]
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    /// The parent of `v`, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        opt(self.parent[v.index()])
    }

    /// The first (leftmost) child of `v`, if any.
    #[inline]
    pub fn first_child(&self, v: NodeId) -> Option<NodeId> {
        opt(self.first_child[v.index()])
    }

    /// The last (rightmost) child of `v`, if any.
    #[inline]
    pub fn last_child(&self, v: NodeId) -> Option<NodeId> {
        opt(self.last_child[v.index()])
    }

    /// The next sibling of `v`, if any.
    #[inline]
    pub fn next_sibling(&self, v: NodeId) -> Option<NodeId> {
        opt(self.next_sibling[v.index()])
    }

    /// The previous sibling of `v`, if any.
    #[inline]
    pub fn prev_sibling(&self, v: NodeId) -> Option<NodeId> {
        opt(self.prev_sibling[v.index()])
    }

    /// The primary label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Symbol {
        self.label[v.index()]
    }

    /// The primary label of `v` as a string.
    #[inline]
    pub fn label_name(&self, v: NodeId) -> &str {
        self.interner.name(self.label[v.index()])
    }

    /// The extra (non-primary) labels of `v`, from the CSR column.
    #[inline]
    fn extra_labels(&self, v: NodeId) -> &[Symbol] {
        let lo = self.extra_offsets[v.index()] as usize;
        let hi = self.extra_offsets[v.index() + 1] as usize;
        &self.extra_syms[lo..hi]
    }

    /// All labels of `v` (primary first, then extras).
    pub fn labels(&self, v: NodeId) -> impl Iterator<Item = Symbol> + '_ {
        std::iter::once(self.label[v.index()]).chain(self.extra_labels(v).iter().copied())
    }

    /// Whether `v` carries label `sym` (as primary or extra label).
    pub fn has_label(&self, v: NodeId, sym: Symbol) -> bool {
        self.label[v.index()] == sym || self.extra_labels(v).contains(&sym)
    }

    /// Whether `v` carries the label named `name`.
    pub fn has_label_name(&self, v: NodeId, name: &str) -> bool {
        self.symbol(name).is_some_and(|sym| self.has_label(v, sym))
    }

    /// Pre-order rank of `v` ("document order", `<pre`).
    #[inline]
    pub fn pre(&self, v: NodeId) -> u32 {
        self.pre[v.index()]
    }

    /// Post-order rank of `v` (`<post`).
    #[inline]
    pub fn post(&self, v: NodeId) -> u32 {
        self.post[v.index()]
    }

    /// Breadth-first left-to-right rank of `v` (`<bflr`).
    #[inline]
    pub fn bflr(&self, v: NodeId) -> u32 {
        self.bflr[v.index()]
    }

    /// Depth of `v`; the root has depth 0.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Height of the tree: maximum depth over all nodes.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Position of `v` among its siblings (first child ↦ 0; the root ↦ 0).
    #[inline]
    pub fn sibling_index(&self, v: NodeId) -> u32 {
        self.sib_idx[v.index()]
    }

    /// Pre-order rank of the last descendant of `v` (its own rank for a
    /// leaf). The proper descendants of `v` are exactly the nodes with pre
    /// rank in `pre(v)+1 ..= pre_end(v)`.
    #[inline]
    pub fn pre_end(&self, v: NodeId) -> u32 {
        self.pre_end[v.index()]
    }

    /// Number of nodes in the subtree rooted at `v` (including `v`).
    #[inline]
    pub fn subtree_size(&self, v: NodeId) -> u32 {
        self.pre_end[v.index()] - self.pre[v.index()] + 1
    }

    /// The node with the given pre-order rank.
    #[inline]
    pub fn node_at_pre(&self, rank: u32) -> NodeId {
        self.pre_to_node[rank as usize]
    }

    /// The node with the given post-order rank.
    #[inline]
    pub fn node_at_post(&self, rank: u32) -> NodeId {
        self.post_to_node[rank as usize]
    }

    /// The node with the given breadth-first rank.
    #[inline]
    pub fn node_at_bflr(&self, rank: u32) -> NodeId {
        self.bflr_to_node[rank as usize]
    }

    /// Whether `v` is the root.
    #[inline]
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()] == NONE
    }

    /// Whether `v` is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.first_child[v.index()] == NONE
    }

    /// Whether `v` has no previous sibling (`FirstSibling` of Section 3).
    #[inline]
    pub fn is_first_sibling(&self, v: NodeId) -> bool {
        self.prev_sibling[v.index()] == NONE
    }

    /// Whether `v` has no next sibling (`LastSibling` of Section 3).
    #[inline]
    pub fn is_last_sibling(&self, v: NodeId) -> bool {
        self.next_sibling[v.index()] == NONE
    }

    /// Whether `x` is a proper ancestor of `y` (`Child⁺(x, y)`), decided in
    /// O(1) by the pre/post characterization of Section 2:
    /// `Child⁺(x,y) ⇔ x <pre y ∧ y <post x`.
    #[inline]
    pub fn is_ancestor(&self, x: NodeId, y: NodeId) -> bool {
        self.pre(x) < self.pre(y) && self.post(y) < self.post(x)
    }

    /// Whether `Following(x, y)` holds: `x <pre y ∧ x <post y` (Section 2).
    #[inline]
    pub fn is_following(&self, x: NodeId, y: NodeId) -> bool {
        self.pre(x) < self.pre(y) && self.post(x) < self.post(y)
    }

    /// All nodes, in `NodeId` order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// All nodes in pre-order (document order).
    pub fn pre_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pre_to_node.iter().copied()
    }

    /// All nodes in post-order.
    pub fn post_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.post_to_node.iter().copied()
    }

    /// All nodes in breadth-first left-to-right order.
    pub fn bflr_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bflr_to_node.iter().copied()
    }

    /// The children of `v`, left to right.
    pub fn children(&self, v: NodeId) -> Children<'_> {
        Children {
            tree: self,
            cur: self.first_child[v.index()],
        }
    }

    /// The proper ancestors of `v`, nearest first.
    pub fn ancestors(&self, v: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            cur: self.parent[v.index()],
        }
    }

    /// Nodes carrying label `sym`, sorted by pre-order rank, as a borrowed
    /// slice of the posting-list column. Empty slice if the label does not
    /// occur (including symbols outside this tree's alphabet).
    pub fn nodes_with_label(&self, sym: Symbol) -> &[NodeId] {
        let i = sym.0 as usize;
        if i + 1 >= self.label_offsets.len() {
            return &[];
        }
        let lo = self.label_offsets[i] as usize;
        let hi = self.label_offsets[i + 1] as usize;
        &self.label_postings[lo..hi]
    }

    /// Nodes carrying the label named `name`, sorted by pre-order rank.
    pub fn nodes_with_label_name(&self, name: &str) -> &[NodeId] {
        self.symbol(name)
            .map_or(&[], |sym| self.nodes_with_label(sym))
    }

    /// `||A||`: the size of the structure in a reasonable machine
    /// representation — nodes plus edges plus label entries (Section 2).
    pub fn size_norm(&self) -> usize {
        // n nodes, n-1 Child edges, n-#(first siblings) NextSibling edges,
        // plus one label entry per (node, label) pair.
        let n = self.len();
        let labels: usize = self.extra_syms.len() + n;
        n + (n - 1) + self.nodes().filter(|&v| !self.is_first_sibling(v)).count() + labels
    }

    /// Gathers all hot traversal columns of `v` into one packed record.
    pub fn hot(&self, v: NodeId) -> HotNode {
        let i = v.index();
        HotNode {
            parent: self.parent[i],
            first_child: self.first_child[i],
            last_child: self.last_child[i],
            next_sibling: self.next_sibling[i],
            prev_sibling: self.prev_sibling[i],
            label: self.label[i],
            pre: self.pre[i],
            post: self.post[i],
            pre_end: self.pre_end[i],
            depth: self.depth[i],
            sib_idx: self.sib_idx[i],
            bflr: self.bflr[i],
        }
    }

    // Unchecked-indexed column reads for the sweep kernels. Callers must
    // pass node ids of *this* tree (every id handed out by the tree or its
    // builder is in range by construction); the public accessors above stay
    // bounds-checked.

    #[inline]
    pub(crate) fn parent_raw_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.parent.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn next_sibling_raw_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.next_sibling.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn prev_sibling_raw_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.prev_sibling.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn last_child_raw_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.last_child.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn pre_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.pre.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn post_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.post.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn pre_end_unchecked(&self, v: NodeId) -> u32 {
        debug_assert!(v.index() < self.len());
        unsafe { *self.pre_end.get_unchecked(v.index()) }
    }

    #[inline]
    pub(crate) fn node_at_pre_unchecked(&self, rank: u32) -> NodeId {
        debug_assert!((rank as usize) < self.len());
        unsafe { *self.pre_to_node.get_unchecked(rank as usize) }
    }

    /// The children of `v` via unchecked sibling-link steps; used by the
    /// sweep kernels ([`children`](Tree::children) is the safe public API).
    #[inline]
    pub(crate) fn children_unchecked(&self, v: NodeId) -> ChildrenUnchecked<'_> {
        ChildrenUnchecked {
            tree: self,
            cur: self.first_child[v.index()],
        }
    }

    /// Comparison of two nodes in pre-order.
    #[inline]
    pub fn pre_lt(&self, x: NodeId, y: NodeId) -> bool {
        self.pre(x) < self.pre(y)
    }

    /// Sorts a slice of nodes by pre-order rank.
    pub fn sort_by_pre(&self, nodes: &mut [NodeId]) {
        nodes.sort_unstable_by_key(|&v| self.pre(v));
    }
}

/// Iterator over the children of a node.
pub struct Children<'t> {
    tree: &'t Tree,
    cur: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let v = opt(self.cur)?;
        self.cur = self.tree.next_sibling[v.index()];
        Some(v)
    }
}

/// Iterator over the proper ancestors of a node, nearest first.
pub struct Ancestors<'t> {
    tree: &'t Tree,
    cur: u32,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let v = opt(self.cur)?;
        self.cur = self.tree.parent[v.index()];
        Some(v)
    }
}

/// Children iterator stepping through unchecked sibling links (the node ids
/// originate from the tree itself, so every index is in range).
pub(crate) struct ChildrenUnchecked<'t> {
    tree: &'t Tree,
    cur: u32,
}

impl Iterator for ChildrenUnchecked<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let v = opt(self.cur)?;
        self.cur = self.tree.next_sibling_raw_unchecked(v);
        Some(v)
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tree({} nodes, {})",
            self.len(),
            crate::term::to_term(self)
        )
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::term::to_term(self))
    }
}

#[cfg(test)]
mod tests {
    use crate::term::parse_term;

    /// The example tree of Figure 2(a):
    /// pre:post:label = 1:7:a(2:3:b(3:1:a 4:2:c) 5:6:a(6:4:b 7:5:d)).
    #[test]
    fn figure2_pre_post_indexes() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        // The paper numbers ranks from 1; we use 0-based ranks, so the
        // expected (pre, post) pairs are each one less.
        let expected = [
            ("a", 0, 6),
            ("b", 1, 2),
            ("a", 2, 0),
            ("c", 3, 1),
            ("a", 4, 5),
            ("b", 5, 3),
            ("d", 6, 4),
        ];
        for (i, &(lab, pre, post)) in expected.iter().enumerate() {
            let v = t.node_at_pre(i as u32);
            assert_eq!(t.label_name(v), lab, "label at pre rank {i}");
            assert_eq!(t.pre(v), pre);
            assert_eq!(t.post(v), post, "post rank of node at pre {i}");
        }
    }

    #[test]
    fn figure1_structure() {
        // Figure 1 (a): n1 with children n2, n4, n5; n2 with child n3;
        // n5 with child n6.
        let t = parse_term("n1(n2(n3) n4 n5(n6))").unwrap();
        assert_eq!(t.len(), 6);
        let n1 = t.root();
        let kids: Vec<_> = t.children(n1).map(|v| t.label_name(v).to_owned()).collect();
        assert_eq!(kids, ["n2", "n4", "n5"]);
        let n2 = t.first_child(n1).unwrap();
        assert_eq!(t.label_name(t.first_child(n2).unwrap()), "n3");
        assert!(t.is_leaf(t.first_child(n2).unwrap()));
    }

    #[test]
    fn ancestor_via_pre_post_matches_parent_chain() {
        let t = parse_term("a(b(c(d) e) f(g h(i)))").unwrap();
        for x in t.nodes() {
            for y in t.nodes() {
                let naive = t.ancestors(y).any(|a| a == x);
                assert_eq!(t.is_ancestor(x, y), naive, "{x:?} anc of {y:?}");
            }
        }
    }

    #[test]
    fn following_matches_definition() {
        // Following(x,y) ⇔ ∃x₀∃y₀ NextSibling⁺(x₀,y₀) ∧ Child*(x₀,x) ∧ Child*(y₀,y)
        let t = parse_term("a(b(c d) e(f) g)").unwrap();
        for x in t.nodes() {
            for y in t.nodes() {
                let mut naive = false;
                for x0 in t.nodes() {
                    for y0 in t.nodes() {
                        let sib_plus = t.parent(x0).is_some()
                            && t.parent(x0) == t.parent(y0)
                            && t.sibling_index(x0) < t.sibling_index(y0);
                        let anc_x = x0 == x || t.is_ancestor(x0, x);
                        let anc_y = y0 == y || t.is_ancestor(y0, y);
                        if sib_plus && anc_x && anc_y {
                            naive = true;
                        }
                    }
                }
                assert_eq!(t.is_following(x, y), naive, "Following({x:?},{y:?})");
            }
        }
    }

    #[test]
    fn bflr_order_is_breadth_first() {
        let t = parse_term("a(b(d e) c(f))").unwrap();
        let order: Vec<_> = t.bflr_order().map(|v| t.label_name(v).to_owned()).collect();
        assert_eq!(order, ["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn subtree_size_and_pre_end() {
        let t = parse_term("a(b(c d) e)").unwrap();
        let root = t.root();
        assert_eq!(t.subtree_size(root), 5);
        assert_eq!(t.pre_end(root), 4);
        let b = t.first_child(root).unwrap();
        assert_eq!(t.subtree_size(b), 3);
        assert_eq!(t.pre_end(b), 3);
    }

    #[test]
    fn size_norm_counts_nodes_edges_labels() {
        let t = parse_term("a(b c)").unwrap();
        // 3 nodes + 2 child edges + 1 next-sibling edge + 3 labels.
        assert_eq!(t.size_norm(), 9);
    }

    #[test]
    fn height_and_depth() {
        let t = parse_term("a(b(c(d)))").unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.depth(t.root()), 0);
    }

    #[test]
    fn hot_node_gather_matches_columns() {
        let t = parse_term("a(b(c d) e)").unwrap();
        for v in t.nodes() {
            let h = t.hot(v);
            assert_eq!(h.pre, t.pre(v));
            assert_eq!(h.post, t.post(v));
            assert_eq!(h.pre_end, t.pre_end(v));
            assert_eq!(h.depth, t.depth(v));
            assert_eq!(h.sib_idx, t.sibling_index(v));
            assert_eq!(h.bflr, t.bflr(v));
            assert_eq!(h.label, t.label(v));
            assert_eq!(
                t.parent(v).map(|p| p.0),
                (h.parent != super::NONE).then_some(h.parent)
            );
            assert_eq!(
                t.next_sibling(v).map(|p| p.0),
                (h.next_sibling != super::NONE).then_some(h.next_sibling)
            );
        }
        assert!(std::mem::size_of::<super::HotNode>() <= 64);
    }

    #[test]
    fn unknown_symbol_has_empty_postings() {
        let t = parse_term("a(b c)").unwrap();
        // A symbol id beyond this tree's alphabet maps to the empty slice.
        assert!(t.nodes_with_label(crate::label::Symbol(99)).is_empty());
    }
}
