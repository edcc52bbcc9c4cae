#![warn(missing_docs)]

//! Unranked ordered labeled trees and their navigational structure.
//!
//! This crate is the data substrate for the whole workspace. It implements
//! the tree model of Section 2 of Koch, *Processing Queries on
//! Tree-Structured Data Efficiently* (PODS 2006):
//!
//! * unranked ordered finite trees with (possibly multiple) node labels,
//! * the axis relations `Child`, `Child+` (`Descendant`), `Child*`,
//!   `NextSibling`, `NextSibling+` (`Following-Sibling`), `NextSibling*`,
//!   `Following`, and their inverses,
//! * the three total node orders `<pre`, `<post`, and `<bflr`,
//! * node labeling schemes: every node carries its pre-order rank,
//!   post-order rank, depth, and subtree extent, so that every axis test is
//!   O(1) arithmetic (the "structural join" encoding of Section 2),
//! * whole-set axis images computed in `O(n)` by order sweeps — the
//!   workhorse behind all the linear-time evaluators in the sibling crates.
//!
//! Trees are constructed through [`TreeBuilder`] (or parsed from a term
//! syntax / a tiny XML subset) and then frozen into an immutable [`Tree`].
//! Freezing computes all orders and indexes once; afterwards the tree is
//! cheap to share by reference, which keeps borrow-checker ceremony out of
//! the query processors.

mod axis;
mod builder;
pub mod edit;
mod enumerate;
mod generate;
mod label;
mod labeling;
mod nodeset;
mod order;
mod par;
pub mod scratch;
mod term;
mod tree;
mod xml;

pub use axis::Axis;
pub use builder::TreeBuilder;
pub use cancel::{CancelReason, CancelToken};
pub use edit::{
    parse_script, render_script, EditDelta, EditKind, EditOp, EditParseError, EditableTree,
    RemovedNode,
};
pub use enumerate::{all_labeled_trees, all_trees, count_trees};
pub use generate::{
    caterpillar, deep_path, full_binary, random_labels, random_recursive_tree,
    random_tree_with_depth, star, xmark_document, XmarkConfig,
};
pub use label::{LabelInterner, Symbol};
pub use labeling::{PathLabel, PathLabeling};
pub use nodeset::NodeSet;
pub use order::Order;
pub use par::{
    image_via_ranges, incoming_carries, incoming_carries_in_place, pre_range_at, pre_range_count,
    pre_ranges, CarryFlow, SweepCarry,
};
pub use term::{parse_term, to_term, TermError};
pub use tree::{Ancestors, Children, HotNode, NodeId, Tree};
/// Cooperative cancellation lives with the per-query context in
/// `treequery-obs`; re-exported so kernels poll `treequery_tree::cancel`.
pub use treequery_obs::cancel;
pub use xml::{parse_xml, to_xml, XmlError};
