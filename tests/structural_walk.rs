//! The structural walk ≡ the scalar specification, token by token.
//!
//! A vectorized token step reads one cached block of structural masks
//! (`memscan::Blocks`: the `<`, `>` and quote bytes of up to 64 bytes)
//! twice: the candidate walk pops its `<` bits (the near phase, before any
//! vector kernel is entered) and the tag-end scan its `>` and quote bits.
//! Both must be invisible:
//!
//! * on generated tag soup with quoted attribute values holding `>`, `/`
//!   and the other quote, over SMP-shaped vocabularies with prefix pairs,
//!   the walk (`TagWalk`) sharing one block cache finds what its
//!   specification — Boyer–Moore, Commentz–Walter — finds, and the
//!   block-served tag end equals the per-byte tag-end loop, token after
//!   token, from every start — over the whole document, and over a window that grows by a few
//!   bytes at a time and drops what lies behind the cursor (every block
//!   cut short, every rebase);
//! * on XMark documents whose attribute values are rewritten the same way
//!   (some longer than two blocks, so a tag often crosses a reader's
//!   refill and the walk resumes on the next window), the
//!   prefilter's output and exact counters in vectorized mode equal the
//!   `SMPX_NO_SIMD=1` specification's, from a slice and a mapping at
//!   release steps of 64 bytes, 4 KiB and the default, and from readers
//!   at chunks around every block edge.
//!
//! The walk reads no scan mode; the prefilter runs compile a fresh
//! prefilter per mode (`memscan::force_accel`), so they run under
//! `SMPX_NO_SIMD=1` alike.

#[allow(dead_code)] // only `Rand` and `TempDoc`
mod common;

use common::{Rand, TempDoc};
use smpx_core::runtime::source::{DocSource, MmapSource, ReaderSource, SliceSource};
use smpx_core::{Prefilter, QueryRegistry, RunStats};
use smpx_datagen::{xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, Blocks};
use smpx_stringmatch::{BoyerMoore, CommentzWalter, NoMetrics, TagWalk};

/// The scan mode `SMPX_NO_SIMD` selects.
fn env_accel() -> bool {
    std::env::var_os("SMPX_NO_SIMD").is_none_or(|v| v != "1")
}

/// Tag names with prefix pairs, so lookalikes of every keyword abound.
const NAMES: &[&str] = &["a", "ab", "abc", "item", "items", "Abstract", "AbstractText"];

/// An attribute value: short or longer than two blocks, holding `>`, `/`,
/// spaces and the quote it is not delimited by.
fn value(r: &mut Rand, quote: u8) -> Vec<u8> {
    let other = if quote == b'"' { b'\'' } else { b'"' };
    let pieces: [&[u8]; 6] = [b"x", b">", b"/", b" ", &[other], b"v>/"];
    let len = if r.chance(15) { 130 + r.below(120) } else { r.below(12) };
    let mut v = Vec::new();
    while v.len() < len {
        v.extend_from_slice(pieces[r.below(pieces.len())]);
    }
    v
}

/// ` name=q…q` attributes, then the end of a tag: `>`, `/>`, ` >` or ` />`.
fn tag_tail(r: &mut Rand, bachelor: bool, out: &mut Vec<u8>) {
    for _ in 0..r.below(3) {
        let quote = if r.chance(50) { b'"' } else { b'\'' };
        out.extend_from_slice(b" k=");
        out.push(quote);
        out.extend(value(r, quote));
        out.push(quote);
    }
    if r.chance(30) {
        out.push(b' ');
    }
    out.extend_from_slice(if bachelor { b"/>" } else { b">" });
}

/// Tag soup: open, close and bachelor tags of [`NAMES`] with attributes,
/// between runs of text that hold `>` (never `<`).
fn soup(r: &mut Rand, tokens: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..tokens {
        let name = NAMES[r.below(NAMES.len())].as_bytes();
        match r.below(3) {
            0 => {
                out.push(b'<');
                out.extend_from_slice(name);
                tag_tail(r, false, &mut out);
            }
            1 => {
                out.extend_from_slice(b"</");
                out.extend_from_slice(name);
                out.extend_from_slice(if r.chance(20) { b" >" } else { b">" });
            }
            _ => {
                out.push(b'<');
                out.extend_from_slice(name);
                tag_tail(r, true, &mut out);
            }
        }
        let text = if r.chance(10) { 90 } else { 6 };
        for _ in 0..r.below(text) {
            out.push([b't', b' ', b'>', b'/', b'"'][r.below(5)]);
        }
    }
    out
}

/// An SMP vocabulary: some `<name` / `</name` tokens, no two alike.
fn vocabulary(r: &mut Rand) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = Vec::new();
    for _ in 0..1 + r.below(6) {
        let name = NAMES[r.below(NAMES.len())];
        let kw = if r.chance(50) { format!("<{name}") } else { format!("</{name}") };
        if !v.contains(&kw.clone().into_bytes()) {
            v.push(kw.into_bytes());
        }
    }
    v
}

/// The per-byte tag-end loop of the runtime's scalar leg: one past the
/// `>` that ends the tag whose name ends at `pos`, and whether `/`
/// preceded it; `None` when `hay` ends first.
fn tag_end_scalar(hay: &[u8], pos: usize) -> Option<(usize, bool)> {
    let (mut i, mut prev) = (pos, 0u8);
    while i < hay.len() {
        match hay[i] {
            b'>' => return Some((i + 1, prev == b'/')),
            q @ (b'"' | b'\'') => {
                i += 1 + hay.get(i + 1..)?.iter().position(|&c| c == q)?;
                prev = q;
            }
            c => prev = c,
        }
        i += 1;
    }
    None
}

/// A vocabulary's walk, searched with a shared block cache, and its
/// specification: Boyer–Moore for one keyword, Commentz–Walter for more.
struct Searcher {
    walk: TagWalk,
    spec: Spec,
}

enum Spec {
    Bm(Box<BoyerMoore>),
    Cw(Box<CommentzWalter>),
}

impl Searcher {
    fn new(vocabulary: &[Vec<u8>]) -> Searcher {
        let spec = match vocabulary {
            [one] => Spec::Bm(Box::new(BoyerMoore::new(one))),
            many => Spec::Cw(Box::new(CommentzWalter::new(many))),
        };
        Searcher { walk: TagWalk::new(vocabulary), spec }
    }

    /// `(pattern length, start)` of the first occurrence at or after
    /// `from`: by the walk through the block cache, and by the
    /// specification.
    fn find(&self, hay: &[u8], from: usize, blocks: &mut Blocks) -> [Option<(usize, usize)>; 2] {
        let walk = self.walk.find_at(hay, from, blocks, &mut NoMetrics);
        let spec = match &self.spec {
            Spec::Bm(bm) => {
                bm.find_at(hay, from, &mut NoMetrics).map(|s| (s, s + bm.pattern().len()))
            }
            Spec::Cw(cw) => cw.find_at(hay, from, &mut NoMetrics).map(|mm| (mm.start, mm.end)),
        };
        [walk.map(|mm| (mm.start, mm.end)), spec].map(|hit| hit.map(|(s, e)| (e - s, s)))
    }
}

/// The block-served tag end equals the per-byte loop: it answers every
/// tag that ends inside `hay`, however long, and declines only one `hay`
/// cuts short.
fn assert_tag_end(blocks: &mut Blocks, hay: &[u8], pos: usize, at: &str) -> Option<(usize, bool)> {
    let want = tag_end_scalar(hay, pos);
    assert_eq!(blocks.tag_end(hay, pos), want, "{at}: tag end from {pos}");
    want
}

/// Token after token from `from` over the whole of `doc`.
fn walk_whole(s: &Searcher, doc: &[u8], from: usize, at: &str) -> usize {
    let mut blocks = Blocks::new();
    let (mut cursor, mut tokens) = (from, 0);
    loop {
        let [got, want] = s.find(doc, cursor, &mut blocks);
        assert_eq!(got, want, "{at}: from {cursor}");
        let Some((len, start)) = got else { return tokens };
        let Some((end, _)) = assert_tag_end(&mut blocks, doc, start + len, at) else {
            return tokens;
        };
        (cursor, tokens) = (end, tokens + 1);
    }
}

/// The same walk over a window `doc[base..end]` that grows `chunk` bytes
/// at a time — each search and tag end sees a haystack cut short, and the
/// blocks computed from it are partial — and moves its base up to the
/// cursor whenever it grows (a compaction: the cache is dropped).
fn walk_window(s: &Searcher, doc: &[u8], chunk: usize, at: &str) -> usize {
    let mut blocks = Blocks::new();
    let (mut base, mut end) = (0, chunk.min(doc.len()));
    let (mut cursor, mut tokens) = (0, 0);
    loop {
        let hay = &doc[base..end];
        let [got, want] = s.find(hay, cursor - base, &mut blocks);
        assert_eq!(got, want, "{at}: window {base}..{end} from {cursor}");
        let tag = got.and_then(|(len, start)| {
            let pos = start + len;
            let found = assert_tag_end(&mut blocks, hay, pos, at);
            found.map(|(e, _)| base + e)
        });
        match tag {
            Some(next) => (cursor, tokens) = (next, tokens + 1),
            None if end == doc.len() => return tokens,
            None => {
                end = (end + chunk).min(doc.len());
                base = cursor;
                blocks.rebase(base);
            }
        }
    }
}

#[test]
fn block_served_walk_equals_the_scalar_loops_token_by_token() {
    let mut tokens = 0;
    for seed in 0..40u64 {
        let mut r = Rand::new(seed);
        let tokens_in_doc = 12 + r.below(40);
        let doc = soup(&mut r, tokens_in_doc);
        let vocab = vocabulary(&mut r);
        let s = Searcher::new(&vocab);
        let at = format!(
            "seed {seed} {:?}",
            vocab.iter().map(|k| String::from_utf8_lossy(k)).collect::<Vec<_>>()
        );
        // Every offset into the first blocks, then a stride through the
        // rest: each start puts the block edges elsewhere.
        for from in (0..=doc.len()).filter(|&f| f < 160 || f % 13 == 0) {
            tokens += walk_whole(&s, &doc, from, &at);
        }
        for chunk in [1, 7, 31, 63, 64, 65, 129] {
            walk_window(&s, &doc, chunk, &format!("{at} chunk {chunk}"));
        }
    }
    assert!(tokens > 10_000, "only {tokens} tokens walked");
}

/// `doc` with every attribute value replaced by one of [`value`]'s, in
/// either quote.
fn adversarial_values(doc: &[u8], r: &mut Rand) -> Vec<u8> {
    let mut out = Vec::with_capacity(doc.len() * 2);
    let mut i = 0;
    while let Some(at) = doc[i..].windows(2).position(|w| w == b"=\"") {
        let open = i + at + 2;
        let close = open + doc[open..].iter().position(|&c| c == b'"').expect("closed value");
        let quote = if r.chance(50) { b'"' } else { b'\'' };
        out.extend_from_slice(&doc[i..open - 1]);
        out.push(quote);
        out.extend_from_slice(&doc[open..close]);
        out.extend(value(r, quote));
        out.push(quote);
        i = close + 1;
    }
    out.extend_from_slice(&doc[i..]);
    out
}

/// What a run must agree on across scan modes, steps and sources.
#[derive(Debug, PartialEq)]
struct Observed {
    out: Vec<u8>,
    exact: [u64; 5],
}

fn observe<S: DocSource>(pf: &mut Prefilter, src: S) -> Observed {
    let mut out = Vec::new();
    let s: RunStats = pf.filter_source(src, &mut out).expect("valid document");
    let exact =
        [s.tokens_matched, s.false_matches, s.match_events, s.output_bytes, s.initial_jump_chars];
    Observed { out, exact }
}

#[test]
fn prefilter_runs_equal_the_scalar_specification_at_every_step_and_chunk() {
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).expect("xmark DTD");
    let paths = |p: &[&str]| PathSet::parse(p).expect("paths");
    let path_sets = [
        paths(&["/*", "/site//item/name#", "/site//item/description#"]),
        paths(&["/*", "//person#", "//incategory", "//itemref"]),
        paths(&["/*", "/site/open_auctions/open_auction/bidder/personref"]),
    ];
    let registry = {
        let mut reg = QueryRegistry::new(dtd.clone());
        for p in &path_sets {
            reg.add_paths(p.clone());
        }
        reg.compile().expect("registry")
    };
    let mut r = Rand::new(7);
    let docs: Vec<Vec<u8>> = [48usize << 10, 96 << 10]
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let doc = xmark::generate(GenOptions::sized(bytes).with_seed(i as u64 + 11));
            adversarial_values(&doc, &mut r)
        })
        .collect();
    let mut engines: Vec<(String, Prefilter)> = path_sets
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("paths {i}"), Prefilter::compile(&dtd, p).expect("compile")))
        .collect();
    engines
        .push(("registry".into(), Prefilter::from_tables(registry.prefilter().tables().clone())));
    for (name, pf) in &engines {
        // A matcher keeps the mode it was built in: one prefilter per mode.
        let fresh = || Prefilter::from_tables(pf.tables().clone());
        for (d, doc) in docs.iter().enumerate() {
            let at = format!("{name} doc {d}");
            memscan::force_accel(false);
            let want = observe(&mut fresh(), SliceSource::new(doc));
            assert!(want.exact[0] > 0, "{at}: no tokens");
            memscan::force_accel(true);
            let mut pf = fresh();
            let tmp = TempDoc::new(doc);
            for step in [64usize, 4096, smpx_core::runtime::RELEASE_STEP] {
                let mut cut = fresh().with_release_step(step);
                let slice = observe(&mut cut, SliceSource::new(doc));
                assert_eq!(slice, want, "{at}: slice, step {step}");
                let mapped = MmapSource::map_with_step(tmp.path(), step).expect("map");
                assert_eq!(observe(&mut cut, mapped), want, "{at}: mapping, step {step}");
            }
            for chunk in [1usize, 31, 63, 64, 65, 127, 4096] {
                let reader = ReaderSource::new(&doc[..], chunk);
                assert_eq!(observe(&mut pf, reader), want, "{at}: reader, chunk {chunk}");
            }
        }
    }
    memscan::force_accel(env_accel());
}
