//! What the static analysis derives from a DTD, once per parsed DTD.

use crate::automaton::DtdAutomaton;
use crate::error::DtdError;
use crate::minlen::MinLen;
use crate::model::Dtd;
use smpx_stringmatch::memscan::TagUniverse;
use std::sync::Arc;

/// The schema half of every compile: the DTD-automaton (recursive
/// elements opaque), the minimal lengths, and the tag universe the
/// matchers' candidate filters are fitted to. [`Dtd::analysis`] builds it
/// on first use and hands the same one to every later compile from that
/// `Dtd`; nothing outlives the `Dtd` (and its clones) it was built for.
#[derive(Debug)]
pub struct DtdAnalysis {
    /// [`DtdAutomaton::build_allow_recursion`] of the DTD.
    pub automaton: DtdAutomaton,
    /// [`MinLen::compute_allow_recursion`] of the DTD.
    pub min_len: MinLen,
    /// `<name` and `</name` of every element, token `2e` opening element
    /// `e` ([`TagUniverse::of_elements`]); shared with the compiled tables.
    pub universe: Arc<TagUniverse>,
}

impl DtdAnalysis {
    pub(crate) fn new(dtd: &Dtd) -> Result<DtdAnalysis, DtdError> {
        Ok(DtdAnalysis {
            automaton: DtdAutomaton::build_allow_recursion(dtd)?,
            min_len: MinLen::compute_allow_recursion(dtd)?,
            universe: Arc::new(TagUniverse::of_elements(dtd.elem_names().iter())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX2: &[u8] =
        br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

    #[test]
    fn built_once_per_parsed_dtd() {
        let dtd = Dtd::parse(EX2).unwrap();
        let first = Arc::as_ptr(dtd.analysis().unwrap());
        assert_eq!(first, Arc::as_ptr(dtd.analysis().unwrap()));
        // A clone made afterwards shares it; a separate parse does not.
        assert_eq!(first, Arc::as_ptr(dtd.clone().analysis().unwrap()));
        let other = Dtd::parse(EX2).unwrap();
        assert_ne!(first, Arc::as_ptr(other.analysis().unwrap()));
        let a = dtd.analysis().unwrap();
        assert_eq!(a.automaton.state_count(), 11);
        assert_eq!(a.min_len.content_len("c"), 4);
        assert_eq!(a.universe, Arc::new(TagUniverse::of_elements(["a", "b", "c"])));
    }

    #[test]
    fn an_expansion_past_the_state_budget_fails_every_time() {
        // e0 holds two e1, e1 two e2, …: 2^18 instances of e18 alone.
        let decls: String =
            (0..18).map(|i| format!("<!ELEMENT e{i} (e{0}, e{0})>", i + 1)).collect();
        let dtd = Dtd::parse(decls.as_bytes()).unwrap();
        let too_large = DtdError::TooLarge { limit: 200_000 };
        assert_eq!(DtdAutomaton::build(&dtd).unwrap_err(), too_large);
        assert_eq!(dtd.analysis().unwrap_err(), too_large);
        assert_eq!(dtd.analysis().unwrap_err(), too_large);
        // Sixteen levels fit: 2^16 - 1 instances, two states each.
        let decls: String =
            (0..15).map(|i| format!("<!ELEMENT e{i} (e{0}, e{0})>", i + 1)).collect();
        let dtd = Dtd::parse(decls.as_bytes()).unwrap();
        assert_eq!(dtd.analysis().unwrap().automaton.state_count(), 1 + 2 * ((1 << 16) - 1));
    }
}
