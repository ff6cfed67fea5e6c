//! The schema side, pinned bit for bit.
//!
//! The static analysis reads three things off a DTD: the DTD-automaton,
//! the minimal lengths and the containment lists. The digests below were
//! recorded from the commit *before* the DTD front end moved to dense
//! element ids, flat content models, bitset Glushkov automata and the
//! in-place automaton build. A front-end or builder change must reproduce
//! them exactly: the same states in the same order with the same element,
//! close flag, dual, parent, subtree end and opacity, the same transitions
//! in the same order, the same `MinLen::of(e)` and the same
//! `effective_child_names` for every element — and the same string model
//! (`Dtd::elements`) for the callers that read it.
//!
//! Run alone: `cargo test -q --test dtd_digest`.

#[allow(dead_code)] // only the generated DTDs are used here
mod common;

use common::{random_dtd, Rand, REC_DTD};
use smpx_dtd::{Dtd, DtdAutomaton, MinLen, StateId};

/// FNV-1a over a canonical serialisation.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Every state of the automaton (element id, close flag, dual, parent,
/// subtree end, opacity) and its transitions in order.
fn automaton_digest(auto: &DtdAutomaton) -> u64 {
    let mut h = Fnv::new();
    h.num(auto.state_count() as u64);
    h.num(auto.final_state().0 as u64);
    for s in auto.states() {
        h.num(if s == StateId::Q0 { u64::MAX } else { auto.elem_id(s) as u64 });
        h.num(auto.is_close(s) as u64);
        h.num(auto.dual(s).0 as u64);
        h.num(auto.parent(s).map_or(u64::MAX, |p| p.0 as u64));
        h.num(auto.subtree_end(s).0 as u64);
        h.num(auto.is_opaque(s) as u64);
        let t = auto.transitions(s);
        h.num(t.len() as u64);
        for q in t {
            h.num(q.0 as u64);
        }
    }
    h.0
}

/// Per element id: its name, `MinLen::of`, and its effective children.
fn elements_digest(dtd: &Dtd, auto: &DtdAutomaton, minlen: &MinLen) -> u64 {
    let mut h = Fnv::new();
    h.text(dtd.root());
    h.num(auto.elem_count() as u64);
    for e in 0..auto.elem_count() {
        let name = auto.label_token(2 * e).name;
        h.text(name);
        let len = minlen.of(e);
        h.num(len.open_tag as u64);
        h.num(len.close_tag as u64);
        h.num(len.bachelor.map_or(u64::MAX, |b| b as u64));
        h.num(len.elem as u64);
        let kids = dtd.effective_child_names(name);
        h.num(kids.len() as u64);
        for k in kids {
            h.text(k);
        }
    }
    h.0
}

/// The string model: every declaration, its content and attributes.
fn model_digest(dtd: &Dtd) -> u64 {
    let mut h = Fnv::new();
    for d in dtd.elements() {
        h.text(&format!("{d:?}"));
    }
    h.text(&format!("{:?}", dtd.recursive_elements()));
    h.0
}

/// `[automaton, elements, string model]` of one DTD.
fn digests(dtd: &Dtd) -> [u64; 3] {
    let auto = DtdAutomaton::build_allow_recursion(dtd).expect("automaton");
    let minlen = MinLen::compute_allow_recursion(dtd).expect("minimal lengths");
    [automaton_digest(&auto), elements_digest(dtd, &auto, &minlen), model_digest(dtd)]
}

/// The DTDs of the suites: the three bundled schemas, the paper's
/// examples, the recursion DTDs and the ambiguous content models.
fn fixed_dtds() -> Vec<(&'static str, Vec<u8>)> {
    let texts: [(&str, &[u8]); 14] = [
        ("xmark", smpx_datagen::xmark::XMARK_DTD.as_bytes()),
        ("medline", smpx_datagen::medline::MEDLINE_DTD.as_bytes()),
        ("protein", smpx_datagen::protein::PROTEIN_DTD.as_bytes()),
        (
            "fig1",
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
        ),
        (
            "example2",
            br#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#,
        ),
        (
            "abstract",
            br#"<!DOCTYPE r [
            <!ELEMENT r (Abstract | AbstractText)*>
            <!ELEMENT Abstract (#PCDATA)>
            <!ELEMENT AbstractText (#PCDATA)>
        ]>"#,
        ),
        ("rec-a", REC_DTD.as_bytes()),
        ("rec-r", b"<!ELEMENT r (x|t)*> <!ELEMENT x (x?) > <!ELEMENT t (#PCDATA)>"),
        ("rec-root", b"<!ELEMENT x (x?, t)> <!ELEMENT t (#PCDATA)>"),
        (
            "rec-parlist",
            br#"<!DOCTYPE site [
        <!ELEMENT site (item*)>
        <!ELEMENT item (name, description)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT description (text | parlist)*>
        <!ELEMENT text (#PCDATA)>
        <!ELEMENT parlist (listitem*)>
        <!ELEMENT listitem (text | parlist)*>
        ]>"#,
        ),
        (
            "ambiguous-0",
            b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
              <!ELEMENT y (#PCDATA)> <!ELEMENT cd (item*)>",
        ),
        (
            "ambiguous-1",
            b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
              <!ELEMENT y (item*)> <!ELEMENT cd (item*)>",
        ),
        ("ambiguous-2", b"<!ELEMENT a (b?, b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b*)>"),
        (
            "mixed-any-ghost",
            br#"<!ELEMENT p (#PCDATA|em|b|em)*> <!ELEMENT em EMPTY> <!ELEMENT b ANY>
                <!ELEMENT q ((em|b)+, (p?, em)*, ghost)>
                <!ATTLIST ghost g (xx|y|zzz) #REQUIRED h CDATA #FIXED "v">
                <!ATTLIST em e CDATA #REQUIRED> <!ATTLIST em f NOTATION (n1|n2) 'n1'>"#,
        ),
    ];
    texts.into_iter().map(|(n, t)| (n, t.to_vec())).collect()
}

/// Recorded from the commit before the id-based front end.
const PINNED: &[(&str, [u64; 3])] = &[
    ("xmark", [0xbc133fef977fd4e4, 0x8e794e8d7344c0aa, 0xb065abc336617b46]),
    ("medline", [0x02b7eaf4f1521eed, 0x919a7c719d3c82bd, 0x329857ebf27ccedb]),
    ("protein", [0x3a45cd758aba73d1, 0x7cf12dd7edd92cbf, 0x8c870f6b00dc8816]),
    ("fig1", [0xd6d5c7843d2f2a96, 0x110bfaafffc8e66e, 0x15459d468f96a5b7]),
    ("example2", [0xe70ddc5e672b4ff1, 0xbdd920be2fd49a7a, 0xd0a0468c6bc546cd]),
    ("abstract", [0xe76b9ea1e28ef824, 0xcb397e4865911101, 0x281cb4fea8c7fa0d]),
    ("rec-a", [0xf5bb7f344106f1e4, 0xcc040a0946842e52, 0x83021931432f5eb8]),
    ("rec-r", [0xbfa52ca027136864, 0x50000333f4fb398b, 0xd3c7fbd715235c15]),
    ("rec-root", [0x768f72d03d9404c6, 0xfcf4f5319cbdd765, 0x3bf1b7703f467e9f]),
    ("rec-parlist", [0x3a7255fbb5031894, 0xfa0023732a661248, 0xe760be38a983af23]),
    ("ambiguous-0", [0xd4377b9b96614951, 0x4823ba63e052b953, 0xb04459b6f5b4bba5]),
    ("ambiguous-1", [0x469c118966297621, 0x5540ab834f89a455, 0x6d77ae93027a946e]),
    ("ambiguous-2", [0xb225052353b86111, 0x043161f288a22c6a, 0x978dbe6ef3eaa71f]),
    ("mixed-any-ghost", [0xbef640ad02071246, 0xf84471306467963a, 0x473d4cdb8037bc6f]),
];

#[test]
fn fixed_dtds_reproduce_the_pinned_digests() {
    let mut got = Vec::new();
    for (name, text) in fixed_dtds() {
        let dtd = Dtd::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        got.push((name, digests(&dtd)));
    }
    assert_eq!(got.len(), PINNED.len(), "one pinned entry per DTD");
    for ((name, d), (pname, want)) in got.iter().zip(PINNED) {
        assert_eq!(name, pname);
        assert_eq!(d, want, "{name}: [automaton, elements, string model]");
    }
}

/// The 400 generated DTDs of `tests/relevance_walk.rs`, one digest over
/// all of them.
const PINNED_GENERATED: [u64; 3] = [0x4cbf308370cdc516, 0x5093dcfa06b07415, 0xa1215f3c8fc278ee];

#[test]
fn generated_dtds_reproduce_the_pinned_digest() {
    let mut all = [Fnv::new(), Fnv::new(), Fnv::new()];
    for seed in 0..400 {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        for (h, d) in all.iter_mut().zip(digests(&dtd)) {
            h.num(d);
        }
    }
    let got = all.map(|h| h.0);
    assert_eq!(got, PINNED_GENERATED, "[automaton, elements, string model]");
}
