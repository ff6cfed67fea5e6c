//! The compiled tables, pinned bit for bit.
//!
//! The digests below were recorded from the commit *before* the static
//! analysis moved to the one-walk relevance evaluator and dense state
//! sets. A compile-time optimisation must reproduce them exactly: same
//! runtime states in the same order, same `V`/`A`/`J`/`T`, same
//! per-state attribution — which is what keeps every equivalence suite
//! and every `RunStats` count where it was.

#[allow(dead_code)] // only the shared case list is used here
mod common;

use common::{analysis_cases, assert_rows_flatten_the_keywords, AnalysisCase};
use smpx_core::compile::compile_counted;
use smpx_core::{Action, CompiledTables, Prefilter};
use smpx_paths::PathSet;

/// FNV-1a over a canonical serialisation of everything the runtime reads.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
    fn text(&mut self, s: &[u8]) {
        self.num(s.len() as u64);
        self.bytes(s);
    }
}

fn digest(t: &CompiledTables) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.num(t.states.len() as u64);
    h.num(t.max_kw_len as u64);
    for s in &t.states {
        match &s.label {
            None => h.num(0),
            Some((name, close)) => {
                h.num(1 + *close as u64);
                h.text(name.as_bytes());
            }
        }
        h.num(s.keywords.len() as u64);
        for k in &s.keywords {
            h.text(&k.bytes);
            h.text(k.name.as_bytes());
            h.num(k.close as u64);
            h.num(k.target as u64);
        }
        h.num(s.jump as u64);
        h.num(match s.action {
            Action::Nop => 0,
            Action::CopyTag { with_atts: false } => 1,
            Action::CopyTag { with_atts: true } => 2,
            Action::CopyOn => 3,
            Action::CopyOff => 4,
        });
        h.num(s.is_final as u64);
        h.num(s.balanced as u64);
    }
    match &t.attribution {
        None => h.num(0),
        Some(att) => {
            h.num(1 + att.n_queries as u64);
            for ids in &att.state_hits {
                h.num(ids.len() as u64);
                for id in ids.iter() {
                    h.num(id.0 as u64);
                }
            }
        }
    }
    h.0
}

/// A case's tables: a registry compile when it has several queries (or is
/// a standing-query case, which is a registry even at N = 1), the plain
/// compile otherwise.
fn tables_of(case: &AnalysisCase) -> CompiledTables {
    if case.queries.len() > 1 || case.name.contains("standing") {
        Prefilter::compile_multi(&case.dtd, &case.queries).expect("compile multi").tables().clone()
    } else {
        Prefilter::compile(&case.dtd, &case.queries[0]).expect("compile").tables().clone()
    }
}

const PINNED: &[(&str, u64)] = &[
    ("xmark/XM5", 0x8dff6665562a6758),
    ("xmark/XM13", 0x917e07960d3a0955),
    ("xmark/XM7", 0xad102bf3ce8156a9),
    ("xmark/XM14", 0xf0bcd1ddfccbdaa2),
    ("xmark/standing-1", 0x9da792f79286def2),
    ("xmark/standing-10", 0xa6484239331dd022),
    ("xmark/standing-100", 0x6c242a5a501697cd),
    ("medline/M1", 0x8dae3bfe48c4b99c),
    ("medline/M2", 0x71ab11ed9ed65794),
    ("medline/M3", 0x1bf3823789676ac2),
    ("medline/M4", 0x1a72afe0144ee94e),
    ("medline/M5", 0x2db5a6554adc9077),
    ("protein/multi", 0x01cc3367ed8ace33),
    ("rec-a/0", 0x693ce96717ff0def),
    ("rec-a/1", 0xfb06b102529f41e0),
    ("rec-a/2", 0xddedc1424dd372d6),
    ("rec-a/3", 0x1502b42690321dca),
    ("rec-r/0", 0x66f19100f2b31195),
    ("rec-r/multi", 0x6f6348fde5d06469),
    ("rec-root/0", 0x62c7a1cebd8dcfc7),
    ("rec-root/1", 0x11d1b870effc0bdc),
    ("rec-parlist/0", 0x2693aa66319c5b0e),
    ("ambiguous/0", 0x27a564ba60ddbfdd),
    ("ambiguous/0-multi", 0xc1e6a9306158ee5f),
    ("ambiguous/1", 0x6f0740097613edfb),
    ("ambiguous/1-multi", 0x250b3219d28f2401),
    ("ambiguous/2", 0x314adecff8585309),
    ("ambiguous/2-multi", 0x99e596d00f29e38f),
];

#[test]
fn tables_reproduce_the_pinned_digests() {
    let got: Vec<(String, u64)> =
        analysis_cases().iter().map(|c| (c.name.clone(), digest(&tables_of(c)))).collect();
    let listing: String = got.iter().map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n")).collect();
    assert_eq!(got.len(), PINNED.len(), "case list changed; current digests:\n{listing}");
    for ((name, d), (pin_name, pin)) in got.iter().zip(PINNED) {
        assert_eq!(name, pin_name, "case order changed; current digests:\n{listing}");
        assert_eq!(d, pin, "{name}: compiled tables moved; current digests:\n{listing}");
    }
}

/// The DFA-level hazard fixpoint verifies and finds nothing on every
/// pinned case: one determinization pass, for the single queries and for
/// the union path set of each registry case.
#[test]
fn pinned_cases_compile_in_one_pass() {
    for case in analysis_cases() {
        let union = PathSet::union_of(&case.queries);
        let (_, passes) = compile_counted(&case.dtd, &union).expect("compile");
        assert_eq!(passes, 1, "{}", case.name);
    }
}

/// The flat token rows of every pinned automaton: each row repeats its
/// keyword and target, and an open keyword's compile-time close target is
/// the one the runtime's per-token linear search found (or the marker of
/// its `UnexpectedToken`).
#[test]
fn rows_carry_the_close_targets_the_linear_search_found() {
    let (mut found, mut missing) = (0, 0);
    for case in analysis_cases() {
        let (f, m) = assert_rows_flatten_the_keywords(&tables_of(&case), &case.name);
        (found, missing) = (found + f, missing + m);
    }
    assert!(found > 0, "no close target was checked");
    assert!(missing > 0, "no row carries the UnexpectedToken marker");
}
