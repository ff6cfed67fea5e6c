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
use crate::model::{AttKind, Dtd, ElemNames, Kind, Node};
use std::sync::Arc;

/// Precomputed minimal lengths for every element of a DTD, indexed by the
/// DTD's dense element ids.
#[derive(Debug, Clone)]
pub struct MinLen {
    /// The DTD's element names in id (= name) order.
    names: Arc<ElemNames>,
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
        let n = dtd.elem_count();
        let mut scratch: Vec<usize> = Vec::new();
        let mut ml = MinLen {
            names: dtd.elem_names().clone(),
            attr_min: (0..n as u32).map(|e| required_attrs_min(dtd, e)).collect(),
            can_be_empty: (0..n as u32)
                .map(|e| {
                    dtd.elem_kind(e) != Kind::Children
                        || eval(dtd.elem_model(e), &mut scratch, |_| 0, Eval::Nullable) == 1
                })
                .collect(),
            content_min: vec![0; n],
        };
        // Content lengths in post-order over the containment graph, each
        // element's after its children's. Recursive elements are seeded
        // with 0, which makes the order well-founded (and conservative):
        // the rest form a DAG.
        let mut done: Vec<bool> = (0..n as u32).map(|e| dtd.elem_is_recursive(e)).collect();
        let mut stack: Vec<u32> = Vec::new();
        for start in 0..n as u32 {
            stack.push(start);
            while let Some(&e) = stack.last() {
                if done[e as usize] {
                    stack.pop();
                    continue;
                }
                let pending = stack.len();
                stack.extend(dtd.elem_children(e).iter().filter(|&&c| !done[c as usize]));
                if stack.len() > pending {
                    continue;
                }
                stack.pop();
                if dtd.elem_kind(e) == Kind::Children {
                    let elem = |c: u32| ml.of(c as usize).elem;
                    ml.content_min[e as usize] =
                        eval(dtd.elem_model(e), &mut scratch, elem, Eval::Shortest);
                }
                done[e as usize] = true;
            }
        }
        Ok(ml)
    }

    fn id(&self, elem: &str) -> Option<usize> {
        self.names.find(elem)
    }

    /// Every minimal length of element `e`, a DTD element id (the index of
    /// its name in [`Dtd::elem_names`]): what the accessors by name give,
    /// without the name search.
    pub fn of(&self, e: usize) -> ElemLengths {
        ElemLengths::new(
            self.names.get(e).len(),
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
}

/// What [`eval`] computes over a content model.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Eval {
    /// 1 if the model accepts the empty word, else 0.
    Nullable,
    /// The fewest characters a word of the model takes, an element
    /// costing what `leaf` says.
    Shortest,
}

/// Evaluate a post-order model bottom-up on the `stack` buffer.
fn eval(model: &[Node], stack: &mut Vec<usize>, leaf: impl Fn(u32) -> usize, what: Eval) -> usize {
    stack.clear();
    let nullable = what == Eval::Nullable;
    for &node in model {
        let v = match node {
            Node::Name(c) => {
                if nullable {
                    0
                } else {
                    leaf(c)
                }
            }
            Node::Seq(k) | Node::Choice(k) => {
                let operands = stack.drain(stack.len() - k as usize..);
                match (node, nullable) {
                    (Node::Seq(_), true) => operands.fold(1, |a, b| a & b),
                    (Node::Seq(_), false) => operands.sum(),
                    (_, true) => operands.fold(0, |a, b| a | b),
                    // An empty choice is as short as nothing.
                    (_, false) => operands.min().unwrap_or(0),
                }
            }
            Node::Opt | Node::Star => {
                stack.pop();
                nullable as usize
            }
            Node::Plus => continue,
        };
        stack.push(v);
    }
    stack.pop().expect("a model has a root")
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
    dtd.elem_atts(elem)
        .iter()
        .filter(|a| a.kind == AttKind::Required)
        .map(|a| {
            // ` name="v"` = 1 + |name| + 1 + 2 + |v|.
            let min_value = min_attr_value_len(dtd.att_str(a.ty));
            1 + dtd.att_str(a.name).len() + 1 + 2 + min_value
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
