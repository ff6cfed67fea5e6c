//! Hostile DTD text: `Dtd::parse` over mutations of the bundled schemas.
//!
//! Every text is truncated at every byte, has single bytes flipped and
//! replaced by markup characters, and has each declaration deleted and
//! duplicated. The parser must never panic, must return `Ok` or one
//! `DtdError` whose position lies inside the input, and the outcomes —
//! `Ok` with the root and element count, or the error kind and position —
//! must hash to the digest recorded from the commit before the DTD front
//! end moved to dense element ids.
//!
//! Run alone: `cargo test -q --test dtd_mutation`.

use smpx_dtd::{Dtd, DtdError};

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
}

/// Parse `text`, check the outcome's shape and fold it into `h`.
fn outcome(h: &mut Fnv, text: &[u8]) {
    match Dtd::parse(text) {
        Ok(dtd) => {
            h.num(0);
            h.bytes(dtd.root().as_bytes());
            h.num(dtd.elements().count() as u64);
        }
        Err(DtdError::Syntax { pos, .. }) => {
            assert!(pos <= text.len(), "error at {pos} past the input's {} bytes", text.len());
            h.num(1);
            h.num(pos as u64);
        }
        Err(DtdError::DuplicateElement(name)) => {
            h.num(2);
            h.bytes(name.as_bytes());
        }
        Err(DtdError::Empty) => h.num(3),
        Err(e) => panic!("parsing alone reported {e}"),
    }
}

/// Byte ranges of the top-level `<!…>` declarations of `text`.
fn declarations(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].windows(2).position(|w| w == b"<!").map(|p| p + i) {
        let end = text[at..].iter().position(|&b| b == b'>').map_or(text.len(), |p| at + p + 1);
        if !text[at..].starts_with(b"<!DOCTYPE") {
            out.push((at, end));
        }
        i = if text[at..].starts_with(b"<!DOCTYPE") { at + 2 } else { end };
    }
    out
}

/// Markup characters a replaced byte becomes, in turn.
const MARKUP: &[u8] = b"<>()|,*?+#\"'[]! -%&;x\x80";

fn mutations_digest(text: &[u8]) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut n = 0;
    let mut one = |t: &[u8]| {
        outcome(&mut h, t);
        n += 1;
    };
    for i in 0..=text.len() {
        one(&text[..i]);
    }
    let mut t = text.to_vec();
    for i in 0..text.len() {
        t[i] ^= 1 << (i % 8);
        one(&t);
        t[i] = MARKUP[i % MARKUP.len()];
        one(&t);
        t[i] = text[i];
    }
    for (a, b) in declarations(text) {
        let deleted = [&text[..a], &text[b..]].concat();
        one(&deleted);
        let duplicated = [&text[..b], &text[a..b], &text[b..]].concat();
        one(&duplicated);
    }
    (h.0, n)
}

/// (schema, parses, outcome digest), recorded from the commit before the
/// id-based front end.
const PINNED: &[(&str, usize, u64)] = &[
    ("xmark", 9896, 0x55528d2304efa1ab),
    ("medline", 7381, 0x7d7add56a60714c3),
    ("protein", 4477, 0x242076849fed2123),
];

#[test]
fn mutated_dtd_texts_reproduce_the_pinned_outcomes() {
    let texts = [
        ("xmark", smpx_datagen::xmark::XMARK_DTD),
        ("medline", smpx_datagen::medline::MEDLINE_DTD),
        ("protein", smpx_datagen::protein::PROTEIN_DTD),
    ];
    let got: Vec<(&str, usize, u64)> = texts
        .iter()
        .map(|(name, text)| {
            let (d, n) = mutations_digest(text.as_bytes());
            (*name, n, d)
        })
        .collect();
    assert_eq!(got, PINNED);
}
