//! DTD substrate for the SMP static analysis.
//!
//! SMP (Koch, Scherzinger, Schmidt, ICDE 2008) assumes a *non-recursive*
//! DTD. From it, the static analysis needs three things, all provided here:
//!
//! 1. a parsed schema — element declarations with content models and
//!    attribute lists over dense element ids ([`Dtd`]; the string forms
//!    [`ContentModel`], [`Regex`] on request),
//! 2. the **DTD-automaton** (paper Fig. 5): a homogeneous finite automaton
//!    over opening/closing tag tokens accepting exactly the documents valid
//!    w.r.t. the DTD, with dual states `q`/`q̂` per element instance and a
//!    parent-state relation ([`DtdAutomaton`]), built via Glushkov position
//!    automata of the content models ([`glushkov::Glushkov`]),
//! 3. **minimal serialization lengths** (paper Ex. 3): the fewest characters
//!    an element instance can occupy in any valid document, counting
//!    required attributes — the ingredient of the initial jump offsets
//!    `J[q]` ([`MinLen`]).
//!
//! A compile reads the last two, and the tag universe of the DTD's
//! elements, from [`Dtd::analysis`]: built once per parsed DTD and shared
//! by every compile made from it ([`DtdAnalysis`]).
//!
//! # Example
//!
//! ```
//! use smpx_dtd::Dtd;
//!
//! // The paper's Example 2 DTD.
//! let dtd = Dtd::parse(br#"<!DOCTYPE a [
//!     <!ELEMENT a (b|c)*>
//!     <!ELEMENT b (#PCDATA)>
//!     <!ELEMENT c (b,b?)>
//! ]>"#).unwrap();
//! assert_eq!(dtd.root(), "a");
//! assert!(!dtd.is_recursive());
//!
//! let auto = smpx_dtd::DtdAutomaton::build(&dtd).unwrap();
//! // q0 plus dual states for: a, b (child of a), c (child of a),
//! // b (1st child of c), b (2nd child of c)  =>  1 + 2*5 = 11.
//! assert_eq!(auto.state_count(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod automaton;
mod error;
pub mod glushkov;
mod minlen;
mod model;
mod parser;

pub use analysis::DtdAnalysis;
pub use automaton::{DtdAutomaton, StateId, TagToken};
pub use error::DtdError;
pub use minlen::{ElemLengths, MinLen};
pub use model::{AttDef, AttDefault, ContentModel, Dtd, ElemNames, ElementDecl, Regex};
