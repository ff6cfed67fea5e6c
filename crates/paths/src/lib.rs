//! Projection paths and relevance semantics for XML prefiltering.
//!
//! Implements Sec. III of the paper:
//!
//! * [`ProjectionPath`] — a *simple path* of downward steps (`/` child,
//!   `//` descendant) with an optional `#` flag meaning "descendants of the
//!   selected nodes are needed too" (\[5\]'s projection paths),
//! * [`PathSet`] — a set of projection paths with its prefix closure `P+`
//!   (Def. 3),
//! * [`Relevance`] — the token/branch relevance conditions **C1**, **C2**,
//!   **C3** of Def. 3, evaluated over *document branches* (label chains from
//!   the root), and [`RelNfa`] / [`ConfigStack`], the same conditions one
//!   step at a time down an expansion tree,
//! * [`xpath`] — an XPath-subset AST and parser covering the paper's
//!   Table II queries (predicates, `contains`, `text()`, `and`/`or`),
//! * [`extract`] — projection-path extraction from XPath expressions in the
//!   style of Marian & Siméon \[5\] (paper Ex. 4).
//!
//! # Example
//!
//! ```
//! use smpx_paths::{ConfigStack, PathSet, RelNfa, Relevance};
//!
//! // The paper's Example 6: <x>{/a/b,//b}</x>.
//! let p = PathSet::parse(&["/*", "/a/b#", "//b#"]).unwrap();
//! let rel = Relevance::new(&p);
//! // c-tags in <a><c><b>T</b></c></a> are kept by condition C3.
//! assert!(rel.relevant_tag(&["a", "c"]));
//! assert!(rel.relevant_tag(&["a", "c", "b"]));   // C1 via //b#
//! assert!(rel.relevant_text(&["a", "c", "b"]));  // C2: inside //b#
//!
//! // The same answers one step at a time down a tree of branches.
//! let nfa = RelNfa::new(&p);
//! let mut walk = ConfigStack::default();
//! walk.start(&nfa);
//! for label in ["a", "c", "b"] {
//!     walk.push(&nfa, nfa.row(label));
//! }
//! assert!(walk.at(&nfa, 1).c3() && walk.at(&nfa, 2).relevant_tag(&walk.at(&nfa, 1)));
//! assert!(walk.at(&nfa, 3).c2());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
mod model;
mod relevance;
pub mod xpath;

pub use model::{Axis, NameTest, ParsePathError, PathSet, ProjectionPath, Step};
pub use relevance::{ConfigStack, RelConfig, RelNfa, Relevance};
