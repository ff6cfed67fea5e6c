//! Shared helpers for the integration tests: seeded random non-recursive
//! DTDs, random valid documents, and random projection path sets.
//!
//! Element names deliberately include prefix pairs (`a`/`ab`/`abc`) so the
//! runtime's tag-name boundary check (the paper's `Abstract` vs
//! `AbstractText` case) is exercised constantly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smpx_core::{Action, CompiledTables, Entry, NO_CLOSE};
use smpx_dtd::{ContentModel, Dtd, DtdAutomaton, Regex};
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, ScanMode};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A document written to a unique temp file, removed on drop — the disk
/// half of the source-matrix tests (`MmapSource` / `ReaderSource` need a
/// real file).
#[allow(dead_code)] // not every test target exercises file-backed sources
pub struct TempDoc {
    path: PathBuf,
}

#[allow(dead_code)]
impl TempDoc {
    pub fn new(doc: &[u8]) -> TempDoc {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("smpx-test-doc-{}-{n}.xml", std::process::id()));
        std::fs::write(&path, doc).expect("write temp doc");
        TempDoc { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDoc {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Name pool; element `i` may only contain elements with larger indices,
/// which makes every generated DTD acyclic by construction.
const NAMES: &[&str] = &["root", "a", "ab", "abc", "b", "c", "cd", "x", "y", "item", "it"];

/// A deterministic random generator bundle.
pub struct Rand {
    pub rng: SmallRng,
}

impl Rand {
    pub fn new(seed: u64) -> Rand {
        Rand { rng: SmallRng::seed_from_u64(seed) }
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n.max(1))
    }

    pub fn chance(&mut self, pct: u32) -> bool {
        self.rng.gen_range(0..100) < pct
    }
}

/// Random non-recursive DTD over a prefix-happy name pool.
pub fn random_dtd(r: &mut Rand) -> Dtd {
    let n = 4 + r.below(NAMES.len() - 4);
    let mut decls = String::new();
    for (i, &name) in NAMES.iter().enumerate().take(n) {
        let content = random_content(r, i + 1, n);
        decls.push_str(&format!("<!ELEMENT {name} {content}>\n"));
        if r.chance(25) {
            let req = if r.chance(50) { "#REQUIRED" } else { "#IMPLIED" };
            decls.push_str(&format!("<!ATTLIST {name} id CDATA {req}>\n"));
        }
    }
    Dtd::parse(decls.as_bytes()).expect("generated DTD parses")
}

/// Random content model referencing only elements in `lo..hi`.
fn random_content(r: &mut Rand, lo: usize, hi: usize) -> String {
    if lo >= hi {
        return "(#PCDATA)".to_string();
    }
    match r.below(10) {
        0 | 1 => "(#PCDATA)".to_string(),
        2 => "EMPTY".to_string(),
        3 => {
            // Mixed content.
            let mut names = Vec::new();
            for &candidate in &NAMES[lo..hi] {
                if r.chance(40) {
                    names.push(candidate);
                }
            }
            if names.is_empty() {
                "(#PCDATA)".to_string()
            } else {
                format!("(#PCDATA|{})*", names.join("|"))
            }
        }
        _ => format!("({})", random_regex(r, lo, hi, 2)),
    }
}

fn random_regex(r: &mut Rand, lo: usize, hi: usize, depth: usize) -> String {
    let atom = |r: &mut Rand| NAMES[lo + r.below(hi - lo)].to_string();
    let base = if depth == 0 || r.chance(50) {
        atom(r)
    } else if r.chance(50) {
        let k = 2 + r.below(2);
        let parts: Vec<String> = (0..k).map(|_| random_regex(r, lo, hi, depth - 1)).collect();
        format!("({})", parts.join(","))
    } else {
        let k = 2 + r.below(2);
        let parts: Vec<String> = (0..k).map(|_| random_regex(r, lo, hi, depth - 1)).collect();
        format!("({})", parts.join("|"))
    };
    match r.below(5) {
        0 => format!("{base}?"),
        1 => format!("{base}*"),
        2 => format!("{base}+"),
        _ => base,
    }
}

/// Random valid document for `dtd` (pretty plain text, no comments).
pub fn random_doc(dtd: &Dtd, r: &mut Rand) -> Vec<u8> {
    let mut out = Vec::new();
    gen_element(dtd, dtd.root(), r, &mut out, 0);
    out
}

fn gen_text(r: &mut Rand, out: &mut Vec<u8>) {
    const WORDS: &[&str] = &["lorem", "ipsum", "tag", "ab", "abc", "less", "amp"];
    let k = r.below(4);
    for i in 0..k {
        if i > 0 {
            out.push(b' ');
        }
        out.extend_from_slice(WORDS[r.below(WORDS.len())].as_bytes());
    }
}

fn gen_attrs(dtd: &Dtd, name: &str, r: &mut Rand, out: &mut Vec<u8>) {
    for att in dtd.attrs(name) {
        let required = matches!(att.default, smpx_dtd::AttDefault::Required);
        if required || r.chance(40) {
            out.extend_from_slice(format!(" {}=\"v{}\"", att.name, r.below(100)).as_bytes());
        }
    }
}

fn gen_element(dtd: &Dtd, name: &str, r: &mut Rand, out: &mut Vec<u8>, depth: usize) {
    let content = dtd.content(name).clone();
    // Sometimes serialize empty-able elements as bachelors.
    let force_empty = depth > 8;
    match content {
        ContentModel::Empty => {
            out.push(b'<');
            out.extend_from_slice(name.as_bytes());
            gen_attrs(dtd, name, r, out);
            if r.chance(70) {
                out.extend_from_slice(b"/>");
            } else {
                out.extend_from_slice(b">");
                out.extend_from_slice(b"</");
                out.extend_from_slice(name.as_bytes());
                out.push(b'>');
            }
        }
        ContentModel::Pcdata | ContentModel::Any => {
            if r.chance(25) {
                out.push(b'<');
                out.extend_from_slice(name.as_bytes());
                gen_attrs(dtd, name, r, out);
                out.extend_from_slice(b"/>");
                return;
            }
            out.push(b'<');
            out.extend_from_slice(name.as_bytes());
            gen_attrs(dtd, name, r, out);
            out.push(b'>');
            gen_text(r, out);
            out.extend_from_slice(b"</");
            out.extend_from_slice(name.as_bytes());
            out.push(b'>');
        }
        ContentModel::Mixed(names) => {
            out.push(b'<');
            out.extend_from_slice(name.as_bytes());
            gen_attrs(dtd, name, r, out);
            out.push(b'>');
            let k = if force_empty { 0 } else { r.below(4) };
            gen_text(r, out);
            for _ in 0..k {
                let child = &names[r.below(names.len())];
                gen_element(dtd, child, r, out, depth + 1);
                gen_text(r, out);
            }
            out.extend_from_slice(b"</");
            out.extend_from_slice(name.as_bytes());
            out.push(b'>');
        }
        ContentModel::Children(re) => {
            let seq = sample_regex(&re, r, force_empty);
            if seq.is_empty() && r.chance(50) {
                out.push(b'<');
                out.extend_from_slice(name.as_bytes());
                gen_attrs(dtd, name, r, out);
                out.extend_from_slice(b"/>");
                return;
            }
            out.push(b'<');
            out.extend_from_slice(name.as_bytes());
            gen_attrs(dtd, name, r, out);
            out.push(b'>');
            for child in seq {
                gen_element(dtd, &child, r, out, depth + 1);
            }
            out.extend_from_slice(b"</");
            out.extend_from_slice(name.as_bytes());
            out.push(b'>');
        }
    }
}

/// Sample a random word of the content-model language.
fn sample_regex(re: &Regex, r: &mut Rand, minimal: bool) -> Vec<String> {
    match re {
        Regex::Name(n) => vec![n.clone()],
        Regex::Seq(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(sample_regex(p, r, minimal));
            }
            out
        }
        Regex::Choice(parts) => {
            if minimal {
                // Pick the shortest-sampling alternative deterministically.
                let mut best: Option<Vec<String>> = None;
                for p in parts {
                    let s = sample_regex(p, r, true);
                    if best.as_ref().is_none_or(|b| s.len() < b.len()) {
                        best = Some(s);
                    }
                }
                best.unwrap_or_default()
            } else {
                sample_regex(&parts[r.below(parts.len())], r, minimal)
            }
        }
        Regex::Opt(inner) => {
            if !minimal && r.chance(50) {
                sample_regex(inner, r, minimal)
            } else {
                Vec::new()
            }
        }
        Regex::Star(inner) => {
            let mut out = Vec::new();
            if !minimal {
                for _ in 0..r.below(3) {
                    out.extend(sample_regex(inner, r, minimal));
                }
            }
            out
        }
        Regex::Plus(inner) => {
            let mut out = sample_regex(inner, r, minimal);
            if !minimal {
                for _ in 0..r.below(2) {
                    out.extend(sample_regex(inner, r, minimal));
                }
            }
            out
        }
    }
}

/// Random projection path set over the DTD's vocabulary (always includes
/// `/*`).
pub fn random_paths(dtd: &Dtd, r: &mut Rand) -> PathSet {
    let mut texts: Vec<String> = vec!["/*".to_string()];
    let n_paths = 1 + r.below(3);
    for _ in 0..n_paths {
        let mut path = String::new();
        let mut cur = dtd.root().to_string();
        path.push('/');
        path.push_str(&cur);
        let steps = 1 + r.below(3);
        for _ in 0..steps {
            let children: Vec<String> =
                dtd.effective_child_names(&cur).into_iter().map(str::to_string).collect();
            if children.is_empty() {
                break;
            }
            let next = children[r.below(children.len())].clone();
            path.push_str(if r.chance(25) { "//" } else { "/" });
            path.push_str(&next);
            cur = next;
        }
        if r.chance(50) {
            path.push('#');
        }
        texts.push(path);
    }
    // Occasionally a pure descendant path.
    if r.chance(40) {
        let name = NAMES[r.below(NAMES.len())];
        let flag = if r.chance(50) { "#" } else { "" };
        texts.push(format!("//{name}{flag}"));
    }
    PathSet::parse(&texts).expect("generated paths parse")
}

/// Check a generated document is valid for its DTD (token-level).
#[allow(dead_code)] // not every test target validates explicitly
pub fn assert_valid(dtd: &Dtd, doc: &[u8]) {
    let auto = DtdAutomaton::build(dtd).expect("automaton");
    let mut tokens: Vec<(String, bool)> = Vec::new();
    for t in smpx_xml::Tokenizer::new(doc) {
        match t.expect("well-formed") {
            smpx_xml::Token::StartTag { name, self_closing, .. } => {
                let n = String::from_utf8_lossy(name).into_owned();
                tokens.push((n.clone(), false));
                if self_closing {
                    tokens.push((n, true));
                }
            }
            smpx_xml::Token::EndTag { name, .. } => {
                tokens.push((String::from_utf8_lossy(name).into_owned(), true));
            }
            _ => {}
        }
    }
    assert!(
        auto.accepts(&tokens),
        "generated document must be DTD-valid:\n{}",
        String::from_utf8_lossy(doc)
    );
}

/// The recursive DTD of `tests/recursion.rs`.
#[allow(dead_code)]
pub const REC_DTD: &str = r#"<!DOCTYPE a [
    <!ELEMENT a (b|x)*>
    <!ELEMENT b (#PCDATA)>
    <!ELEMENT x (x?, b)>
    <!ATTLIST x depth CDATA #IMPLIED>
]>"#;

/// One static-analysis case: a name, a DTD, and the queries' path sets
/// (one set = a single-query compile, several = a registry compile).
#[allow(dead_code)]
pub struct AnalysisCase {
    pub name: String,
    pub dtd: Dtd,
    pub queries: Vec<PathSet>,
}

/// The two subtree-copy commands of the benchmark's `xmark-copy`
/// workload, over the XMark DTD. Kept out of [`analysis_cases`], whose
/// list the compile digests pin.
#[allow(dead_code)]
pub fn copy_cases() -> Vec<AnalysisCase> {
    let xmark = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    [
        ("copy/items", &["/*", "/site/regions//item#"][..]),
        ("copy/items-people", &["/*", "/site/regions//item#", "/site/people/person#"]),
    ]
    .into_iter()
    .map(|(name, paths)| AnalysisCase {
        name: name.to_string(),
        dtd: xmark.clone(),
        queries: vec![PathSet::parse(paths).expect("copy paths parse")],
    })
    .collect()
}

/// The fixed (DTD, queries) pairs the compile-digest and the
/// relevance-evaluator suites share: XMark × {XM5, XM13, XM7, XM14,
/// standing queries N = 1, 10, 100}, MEDLINE × M1–M5, the protein DTD,
/// the recursion DTDs of `tests/recursion.rs` and the three ambiguous
/// content models of `compile::tests`.
#[allow(dead_code)]
pub fn analysis_cases() -> Vec<AnalysisCase> {
    use smpx_bench::queries::{
        medline_paths, standing_path_sets, xmark_paths, MEDLINE_QUERIES, XMARK_QUERIES,
    };
    let case = |name: &str, dtd: &Dtd, queries: Vec<PathSet>| AnalysisCase {
        name: name.to_string(),
        dtd: dtd.clone(),
        queries,
    };
    let parse = |texts: &[&str]| PathSet::parse(texts).expect("case paths parse");
    let mut out = Vec::new();

    let xmark = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    for id in ["XM5", "XM13", "XM7", "XM14"] {
        let q = XMARK_QUERIES.iter().find(|q| q.id == id).expect("Table I query");
        out.push(case(&format!("xmark/{id}"), &xmark, vec![xmark_paths(q)]));
    }
    for n in [1, 10, 100] {
        out.push(case(&format!("xmark/standing-{n}"), &xmark, standing_path_sets(&xmark, n)));
    }
    let medline = Dtd::parse(smpx_datagen::medline::MEDLINE_DTD.as_bytes()).expect("MEDLINE DTD");
    for q in MEDLINE_QUERIES {
        out.push(case(&format!("medline/{}", q.id), &medline, vec![medline_paths(q)]));
    }
    let protein = Dtd::parse(smpx_datagen::protein::PROTEIN_DTD.as_bytes()).expect("protein DTD");
    out.push(case(
        "protein/multi",
        &protein,
        vec![parse(&["/*", "//reference//author#"]), parse(&["/*", "//organism/source#"])],
    ));

    let rec = Dtd::parse(REC_DTD.as_bytes()).expect("recursive DTD");
    for (i, texts) in [&["/*", "/a/b#"][..], &["/*", "//b#"], &["/*", "/a/x"], &["/*", "//x//b"]]
        .into_iter()
        .enumerate()
    {
        out.push(case(&format!("rec-a/{i}"), &rec, vec![parse(texts)]));
    }
    let rec_r = Dtd::parse(b"<!ELEMENT r (x|t)*> <!ELEMENT x (x?) > <!ELEMENT t (#PCDATA)>")
        .expect("recursive DTD");
    out.push(case("rec-r/0", &rec_r, vec![parse(&["/*", "/r/t#"])]));
    out.push(case("rec-r/multi", &rec_r, vec![parse(&["/*", "/r/t#"]), parse(&["/*", "//x"])]));
    let rec_root =
        Dtd::parse(b"<!ELEMENT x (x?, t)> <!ELEMENT t (#PCDATA)>").expect("recursive DTD");
    out.push(case("rec-root/0", &rec_root, vec![parse(&["/*", "//t#"])]));
    out.push(case("rec-root/1", &rec_root, vec![parse(&["/*"])]));
    let parlist = Dtd::parse(
        br#"<!DOCTYPE site [
        <!ELEMENT site (item*)>
        <!ELEMENT item (name, description)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT description (text | parlist)*>
        <!ELEMENT text (#PCDATA)>
        <!ELEMENT parlist (listitem*)>
        <!ELEMENT listitem (text | parlist)*>
        ]>"#,
    )
    .expect("recursive DTD");
    out.push(case(
        "rec-parlist/0",
        &parlist,
        vec![parse(&["/*", "/site/item/name#", "/site/item/description#"])],
    ));

    let ambiguous: [(&[u8], &[&str]); 3] = [
        (
            b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
              <!ELEMENT y (#PCDATA)> <!ELEMENT cd (item*)>",
            &["/*", "/a/item#"],
        ),
        (
            b"<!ELEMENT a (item*, (item, y, cd), y)> <!ELEMENT item (#PCDATA)> \
              <!ELEMENT y (item*)> <!ELEMENT cd (item*)>",
            &["/*", "/a/item#"],
        ),
        (b"<!ELEMENT a (b?, b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b*)>", &["/*", "/a/b#"]),
    ];
    for (i, (dtd_text, texts)) in ambiguous.iter().enumerate() {
        let dtd = Dtd::parse(dtd_text).expect("ambiguous DTD");
        out.push(case(&format!("ambiguous/{i}"), &dtd, vec![parse(texts)]));
        out.push(case(
            &format!("ambiguous/{i}-multi"),
            &dtd,
            vec![parse(texts), parse(&["/*", "//item"]), parse(&["/*", "//b#"])],
        ));
    }
    out
}

/// The flat token rows of `t` say what its keywords say: per state and
/// keyword, the pattern length, close flag and target, the target's
/// action, balanced flag, match-event class and attribution — and, for an
/// open keyword, the close target the runtime used to find per bachelor
/// tag and per balanced subtree with a linear search of the target's
/// vocabulary for the closing keyword of its own element (compared by
/// name), or [`NO_CLOSE`] exactly where that search finds nothing and the
/// run reports `UnexpectedToken`. Returns the numbers of close targets
/// found and of `NO_CLOSE` rows.
#[allow(dead_code)] // not every test target checks tables
pub fn assert_rows_flatten_the_keywords(t: &CompiledTables, label: &str) -> (usize, usize) {
    let entry = |q: u32| {
        let action = t.states[q as usize].action;
        Entry {
            action,
            balanced: t.states[q as usize].balanced,
            event: matches!(
                action,
                Action::CopyOn | Action::CopyOff | Action::CopyTag { with_atts: true }
            ),
            attributed: t
                .attribution
                .as_ref()
                .is_some_and(|att| !att.state_hits[q as usize].is_empty()),
        }
    };
    let no_entry = Entry { action: Action::Nop, balanced: false, event: false, attributed: false };
    let (mut found, mut missing) = (0, 0);
    for (q, state) in t.states.iter().enumerate() {
        let rows = t.rows(q as u32);
        assert_eq!(rows.len(), state.keywords.len(), "{label}: state {q} rows");
        for (i, (row, kw)) in rows.iter().zip(&state.keywords).enumerate() {
            let at = format!("{label}: state {q} keyword {i} ({})", kw.name);
            assert_eq!(
                (row.len as usize, row.close, row.target),
                (kw.bytes.len(), kw.close, kw.target),
                "{at}"
            );
            assert_eq!(row.on, entry(kw.target), "{at}: target entry");
            let searched = (!kw.close).then(|| {
                let open = &t.states[kw.target as usize];
                let name = &open.label.as_ref().expect("labeled target").0;
                open.keywords.iter().find(|k| k.close && k.name == *name).map(|k| k.target)
            });
            match searched.flatten() {
                Some(close) => {
                    found += 1;
                    assert_eq!(row.close_target, close, "{at}: close target");
                    assert_eq!(row.on_close, entry(close), "{at}: close entry");
                }
                None => {
                    missing += !kw.close as usize;
                    assert_eq!(row.close_target, NO_CLOSE, "{at}: no close keyword");
                    assert_eq!(row.on_close, no_entry, "{at}: no close entry");
                }
            }
        }
    }
    (found, missing)
}

/// The two scan modes an equivalence suite runs side by side: the walk on
/// the widest kind this CPU runs, then the scalar specification.
#[allow(dead_code)] // not every test target compares modes
pub fn both_modes() -> [ScanMode; 2] {
    [ScanMode::Walk(memscan::kind()), ScanMode::Spec]
}
