//! Minimal serialization lengths (paper Ex. 1 and Ex. 3).
//!
//! The initial jump offsets `J[q]` rest on one question: *how few characters
//! can a given piece of document structure occupy in any valid instance?*
//! This module answers it per element:
//!
//! * the minimal **open tag** `<name …>` including all `#REQUIRED`
//!   attributes at their shortest valid values,
//! * the minimal **close tag** `</name>`,
//! * the minimal **bachelor tag** `<name …/>` (only when the content model
//!   admits emptiness),
//! * the minimal **complete instance** (open + minimal content + close, or
//!   the bachelor form when allowed).
//!
//! Required attributes of enumerated type must carry one of the enumeration
//! tokens, so their minimal value is the shortest token; every other
//! attribute type admits an empty value as far as well-formedness is
//! concerned — matching the paper's `<incategory category=''/>` accounting
//! (25 characters).

use crate::error::DtdError;
use crate::model::{AttDefault, ContentModel, Dtd, Regex};
use std::sync::Arc;

/// Precomputed minimal lengths for every element of a DTD, indexed by the
/// DTD's dense element ids.
#[derive(Debug, Clone)]
pub struct MinLen {
    /// The DTD's element names in id (= name) order.
    names: Arc<[String]>,
    attr_min: Vec<usize>,
    content_min: Vec<usize>,
    can_be_empty: Vec<bool>,
}

impl MinLen {
    /// Compute the table. Fails on recursive DTDs (exact lengths would be
    /// ill-founded); use
    /// [`compute_allow_recursion`](Self::compute_allow_recursion) for the
    /// conservative variant.
    pub fn compute(dtd: &Dtd) -> Result<MinLen, DtdError> {
        if let Some(e) = dtd.find_cycle() {
            return Err(DtdError::Recursive { element: e.to_string() });
        }
        Self::compute_allow_recursion(dtd)
    }

    /// Compute the table, assigning recursive elements a conservative
    /// minimal content length of 0. All lengths remain valid *lower*
    /// bounds, which is the only property jump-offset safety needs.
    pub fn compute_allow_recursion(dtd: &Dtd) -> Result<MinLen, DtdError> {
        let names = dtd.elem_names().clone();
        let n = names.len() as u32;
        let mut ml = MinLen {
            attr_min: (0..n).map(|e| required_attrs_min(dtd, e)).collect(),
            can_be_empty: (0..n)
                .map(|e| dtd.elem_decl(e).is_none_or(|d| d.content.can_be_empty()))
                .collect(),
            content_min: Vec::new(),
            names,
        };
        // Recursive elements are pre-seeded with 0, which makes the
        // memoized recursion well-founded (and conservative).
        let mut memo: Vec<Option<usize>> =
            (0..n).map(|e| dtd.elem_is_recursive(e).then_some(0)).collect();
        for e in 0..n {
            ml.content_min_memo(dtd, e, &mut memo);
        }
        // The loop above memoized every id.
        ml.content_min = memo.into_iter().map(|v| v.expect("filled above")).collect();
        Ok(ml)
    }

    fn id(&self, elem: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(elem)).ok()
    }

    /// Every minimal length of element `e`, a DTD element id (the index of
    /// its name in [`Dtd::elem_names`]): what the accessors by name give,
    /// without the name search.
    pub fn of(&self, e: usize) -> ElemLengths {
        ElemLengths::new(
            self.names[e].len(),
            self.attr_min[e],
            self.content_min[e],
            self.can_be_empty[e],
        )
    }

    /// [`of`](Self::of) by name; a name the DTD does not mention is an
    /// empty element without attributes.
    fn by_name(&self, elem: &str) -> ElemLengths {
        self.id(elem).map_or_else(|| ElemLengths::new(elem.len(), 0, 0, true), |e| self.of(e))
    }

    /// Minimal total characters of the `#REQUIRED` attributes of `elem`,
    /// including the separating spaces (e.g. ` category=""` = 12).
    pub fn attrs(&self, elem: &str) -> usize {
        self.id(elem).map_or(0, |e| self.attr_min[e])
    }

    /// Minimal characters of the content (between open and close tag).
    pub fn content_len(&self, elem: &str) -> usize {
        self.id(elem).map_or(0, |e| self.content_min[e])
    }

    /// Minimal open tag `<elem …>` length.
    pub fn open_tag(&self, elem: &str) -> usize {
        self.by_name(elem).open_tag
    }

    /// Close tag `</elem>` length.
    pub fn close_tag(&self, elem: &str) -> usize {
        self.by_name(elem).close_tag
    }

    /// Minimal bachelor tag `<elem …/>` length, if the element may be empty.
    pub fn bachelor(&self, elem: &str) -> Option<usize> {
        self.by_name(elem).bachelor
    }

    /// Minimal length of a complete instance of `elem` in any valid
    /// document.
    pub fn elem(&self, elem: &str) -> usize {
        self.by_name(elem).elem
    }

    /// Memoized minimal content length of element `e` (acyclic once the
    /// recursive elements are seeded, so plain recursion with a memo table
    /// terminates in O(schema size)).
    fn content_min_memo(&self, dtd: &Dtd, e: u32, memo: &mut [Option<usize>]) -> usize {
        if let Some(v) = memo[e as usize] {
            return v;
        }
        let v = match dtd.elem_decl(e).map(|d| &d.content) {
            Some(ContentModel::Children(re)) => self.regex_min_memo(dtd, re, memo),
            _ => 0,
        };
        memo[e as usize] = Some(v);
        v
    }

    fn regex_min_memo(&self, dtd: &Dtd, re: &Regex, memo: &mut [Option<usize>]) -> usize {
        match re {
            Regex::Name(n) => {
                // `Dtd::from_parts` gives every name a content model
                // mentions an id.
                let e = dtd.elem_id(n).expect("content models mention known elements");
                self.elem_min_memo(dtd, e, memo)
            }
            Regex::Seq(parts) => parts.iter().map(|p| self.regex_min_memo(dtd, p, memo)).sum(),
            Regex::Choice(parts) => {
                parts.iter().map(|p| self.regex_min_memo(dtd, p, memo)).min().unwrap_or(0)
            }
            Regex::Opt(_) | Regex::Star(_) => 0,
            Regex::Plus(inner) => self.regex_min_memo(dtd, inner, memo),
        }
    }

    /// Minimal length of a complete instance of element `e`.
    fn elem_min_memo(&self, dtd: &Dtd, e: u32, memo: &mut [Option<usize>]) -> usize {
        let content = self.content_min_memo(dtd, e, memo);
        let (i, name_len) = (e as usize, dtd.elem_name(e).len());
        ElemLengths::new(name_len, self.attr_min[i], content, self.can_be_empty[i]).elem
    }
}

/// The minimal lengths of one element ([`MinLen::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemLengths {
    /// Minimal open tag `<elem …>`, required attributes included.
    pub open_tag: usize,
    /// Close tag `</elem>`.
    pub close_tag: usize,
    /// Minimal bachelor tag `<elem …/>`, if the element may be empty.
    pub bachelor: Option<usize>,
    /// Minimal complete instance: the bachelor tag, or open tag, minimal
    /// content and close tag, whichever is shorter.
    pub elem: usize,
}

impl ElemLengths {
    fn new(name_len: usize, attrs: usize, content: usize, can_be_empty: bool) -> ElemLengths {
        let open_tag = 1 + name_len + attrs + 1;
        let close_tag = 2 + name_len + 1;
        let bachelor = can_be_empty.then_some(1 + name_len + attrs + 2);
        let paired = open_tag + content + close_tag;
        ElemLengths {
            open_tag,
            close_tag,
            bachelor,
            elem: bachelor.map_or(paired, |b| paired.min(b)),
        }
    }
}

fn required_attrs_min(dtd: &Dtd, elem: u32) -> usize {
    dtd.elem_decl(elem)
        .map_or(&[][..], |d| &d.attrs)
        .iter()
        .filter(|a| matches!(a.default, AttDefault::Required))
        .map(|a| {
            // ` name="v"` = 1 + |name| + 1 + 2 + |v|.
            let min_value = min_attr_value_len(&a.ty);
            1 + a.name.len() + 1 + 2 + min_value
        })
        .sum()
}

/// Minimal value length by declared type: enumerations must use one of
/// their tokens; every other type admits the empty string as far as
/// well-formedness goes.
fn min_attr_value_len(ty: &str) -> usize {
    let ty = ty.trim();
    if let Some(body) = ty.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        return body.split('|').map(|tok| tok.trim().len()).min().unwrap_or(0);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_dtd() -> Dtd {
        Dtd::parse(
            br#"<!DOCTYPE site [
            <!ELEMENT site (regions)>
            <!ELEMENT regions (africa, asia, australia)>
            <!ELEMENT africa (item*)>
            <!ELEMENT asia (item*)>
            <!ELEMENT australia (item*)>
            <!ELEMENT item (location,name,payment,description,shipping,incategory+)>
            <!ELEMENT incategory EMPTY>
            <!ATTLIST incategory category ID #REQUIRED>
            ]>"#,
        )
        .unwrap()
    }

    #[test]
    fn example1_jump_ingredients() {
        // "<regions><africa/><asia/>" has length 25 in the paper.
        let ml = MinLen::compute(&fig1_dtd()).unwrap();
        assert_eq!(ml.open_tag("regions"), 9);
        assert_eq!(ml.bachelor("africa"), Some(9));
        assert_eq!(ml.bachelor("asia"), Some(7));
        assert_eq!(ml.open_tag("regions") + ml.elem("africa") + ml.elem("asia"), 25);
    }

    #[test]
    fn example1_item_tail_ingredients() {
        // "<shipping/><incategory category=''/></item>" from the paper's
        // Example 1: 11 + 25 + 7 = 43.
        let ml = MinLen::compute(&fig1_dtd()).unwrap();
        assert_eq!(ml.elem("shipping"), 11);
        assert_eq!(ml.attrs("incategory"), 12);
        assert_eq!(ml.elem("incategory"), 25);
        assert_eq!(ml.close_tag("item"), 7);
        assert_eq!(ml.elem("shipping") + ml.elem("incategory") + ml.close_tag("item"), 43);
    }

    #[test]
    fn example3_c_content() {
        // DTD of Ex. 2: c has content (b,b?); minimal content is one
        // bachelor <b/> = 4 characters (J[q3] = 4 in Fig. 3).
        let dtd = Dtd::parse(
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        )
        .unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        assert_eq!(ml.content_len("c"), 4);
        assert_eq!(ml.bachelor("b"), Some(4));
        // c itself cannot be a bachelor (needs one b).
        assert_eq!(ml.bachelor("c"), None);
        assert_eq!(ml.elem("c"), 3 + 4 + 4); // <c> + <b/> + </c>
    }

    #[test]
    fn choice_takes_minimum() {
        let dtd = Dtd::parse(
            b"<!ELEMENT r (long_element | s)> <!ELEMENT long_element EMPTY> <!ELEMENT s EMPTY>",
        )
        .unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        assert_eq!(ml.content_len("r"), 4); // <s/>
    }

    #[test]
    fn plus_counts_one_instance() {
        let dtd = Dtd::parse(b"<!ELEMENT r (x+)> <!ELEMENT x EMPTY>").unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        assert_eq!(ml.content_len("r"), 4); // one <x/>
        assert_eq!(ml.bachelor("r"), None);
    }

    #[test]
    fn enumerated_required_attr_counts_shortest_token() {
        let dtd = Dtd::parse(br#"<!ELEMENT e EMPTY> <!ATTLIST e kind (alpha|hi|gamma) #REQUIRED>"#)
            .unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        // ` kind="hi"` = 1 + 4 + 1 + 2 + 2 = 10.
        assert_eq!(ml.attrs("e"), 10);
    }

    #[test]
    fn optional_attrs_do_not_count() {
        let dtd = Dtd::parse(br#"<!ELEMENT e EMPTY> <!ATTLIST e a CDATA #IMPLIED b CDATA "dflt">"#)
            .unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        assert_eq!(ml.attrs("e"), 0);
        assert_eq!(ml.bachelor("e"), Some(4));
    }

    #[test]
    fn undeclared_children_are_pcdata() {
        let dtd = Dtd::parse(b"<!ELEMENT r (ghost)>").unwrap();
        let ml = MinLen::compute(&dtd).unwrap();
        assert_eq!(ml.elem("ghost"), 8); // <ghost/>
        assert_eq!(ml.content_len("r"), 8);
    }

    #[test]
    fn recursive_dtd_rejected() {
        let dtd = Dtd::parse(b"<!ELEMENT a (b)> <!ELEMENT b (a)>").unwrap();
        assert!(matches!(MinLen::compute(&dtd), Err(DtdError::Recursive { .. })));
    }
}
