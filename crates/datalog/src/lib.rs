#![warn(missing_docs)]

//! Monadic datalog over tree structures (Section 3 of the paper).
//!
//! Monadic datalog — datalog where every intensional predicate is unary —
//! over the signature
//! τ⁺ = ⟨Dom, Root, Leaf, (Labₐ)ₐ, FirstChild, NextSibling, LastSibling⟩
//! captures exactly the unary MSO queries on trees \[31\] and can be
//! evaluated with `O(|P| · |Dom|)` combined complexity (Theorem 3.2):
//! ground the program over the tree, then run Minoux's linear-time
//! Horn-SAT algorithm (Figure 3).
//!
//! This crate provides:
//!
//! * the program AST and a parser ([`Program`], [`parse_program`]),
//! * Tree-Marking Normal Form (Definition 3.4): recognition
//!   ([`Program::is_tmnf`]) and the linear-time translation
//!   ([`to_tmnf`]) that also eliminates the derived `Child` relation,
//! * grounding over a tree into densely numbered atoms ([`ground`],
//!   [`Grounder`], [`AtomNumbering`]) and evaluation through Horn-SAT
//!   ([`eval`], [`eval_query`]),
//! * a naive fixpoint evaluator ([`eval_naive`]) on an independent,
//!   simple rule matcher, used as a differential-testing oracle.

mod ast;
mod eval;
mod features;
mod ground;
mod matcher;
mod parser;
mod tmnf;

pub use ast::{BasePred, BinRel, BodyAtom, PredId, Program, Rule, UnaryRef, VarId};
pub use eval::{eval, eval_naive, eval_query, IncrementalEval, PendingEdit};
pub use features::{features, ProgramFeatures};
pub use ground::{ground, AtomNumbering, GroundAtom, Grounder, RangeGrounding};
pub use parser::{parse_program, ParseError};
pub use tmnf::{to_tmnf, TmnfError};
