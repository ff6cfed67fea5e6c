//! The one-walk relevance evaluator against the branch-at-a-time one.
//!
//! `Relevance`'s branch-form predicates are the executable statement of
//! Def. 3 (and what the `TokenProjector` oracle calls); `RelConfig` answers
//! the same questions from a configuration carried down the expansion
//! tree, and is what the static analysis calls. For every state of every
//! automaton the other suites use, and for every relevance built from
//! their path sets, the two must agree on `auto.branch(q)`.

#[allow(dead_code)] // no documents are generated here
mod common;

use common::{analysis_cases, random_dtd, random_paths, Rand};
use smpx_core::compile::{compile_multi_with_counts, compile_with_counts};
use smpx_dtd::{Dtd, DtdAutomaton};
use smpx_paths::{PathSet, RelConfig, Relevance};

/// Every predicate of the configuration form equals its branch form.
fn assert_agree(rel: &Relevance, parent: &RelConfig<'_>, cfg: &RelConfig<'_>, branch: &[&str]) {
    let ctx = || {
        let plus: Vec<String> = rel.plus().iter().map(|p| p.to_string()).collect();
        format!("P+ = {{{}}}, branch {branch:?}", plus.join(", "))
    };
    assert_eq!(cfg.c1(), rel.c1(branch), "c1: {}", ctx());
    assert_eq!(cfg.c1_exact(), rel.c1_exact(branch), "c1_exact: {}", ctx());
    assert_eq!(cfg.c2(), rel.c2(branch), "c2: {}", ctx());
    assert_eq!(cfg.c2_leaf(), rel.c2_leaf(branch), "c2_leaf: {}", ctx());
    assert_eq!(cfg.c3(), rel.c3_parent(branch), "c3: {}", ctx());
    assert_eq!(cfg.may_match_below(), rel.may_match_below(branch), "may_match_below: {}", ctx());
    if !branch.is_empty() {
        assert_eq!(cfg.relevant_tag(parent), rel.relevant_tag(branch), "relevant_tag: {}", ctx());
    }
}

/// Walk `auto` parents-first, one `descend` per instance, comparing at the
/// empty branch and at every state. Returns the number of steps taken.
fn walk(auto: &DtdAutomaton, paths: &PathSet) -> usize {
    let rel = Relevance::new(paths);
    let root = rel.root();
    assert_agree(&rel, &root, &root, &[]);
    let mut cfgs: Vec<Option<RelConfig<'_>>> = vec![None; auto.state_count()];
    let mut steps = 0;
    for open in auto.states().skip(1).filter(|&q| !auto.is_close(q)) {
        let parent = match auto.parent(open) {
            Some(p) => cfgs[p.0 as usize].as_ref().expect("parents precede children"),
            None => &root,
        };
        let cfg = parent.descend(auto.elem_name(open));
        steps += 1;
        assert_eq!(auto.branch(open), auto.branch(auto.dual(open)));
        assert_agree(&rel, parent, &cfg, &auto.branch(open));
        cfgs[open.0 as usize] = Some(cfg);
    }
    steps
}

fn instances(auto: &DtdAutomaton) -> usize {
    (auto.state_count() - 1) / 2
}

/// The fixed automata (XMark, MEDLINE, protein, recursive, ambiguous) ×
/// their queries one by one × the union of each registry case.
#[test]
fn fixed_automata_agree_with_the_branch_form() {
    for case in analysis_cases() {
        let auto = DtdAutomaton::build_allow_recursion(&case.dtd).expect("automaton");
        for q in &case.queries {
            assert_eq!(walk(&auto, q), instances(&auto), "{}", case.name);
        }
        if case.queries.len() > 1 {
            let union = PathSet::union_of(&case.queries);
            walk(&auto, &union);
        }
    }
}

/// The generated DTD × path-set pairs of `tests/proptest_pipeline.rs`.
#[test]
fn generated_automata_agree_with_the_branch_form() {
    for seed in 0..400 {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        let auto = DtdAutomaton::build(&dtd).expect("generated DTDs are non-recursive");
        walk(&auto, &random_paths(&dtd, &mut r));
    }
}

/// Shapes the workloads above are thin on: wildcard steps in every
/// position, `//` steps that re-fire on a repeated name, both C3 forms, the
/// empty path with and without `#`, and labels no path mentions.
#[test]
fn wildcards_refiring_descendants_and_c3_agree() {
    let dtd = Dtd::parse(
        b"<!ELEMENT r (a|b|c)*> <!ELEMENT a (a2|b|c)*> <!ELEMENT a2 (a3|b)*> \
          <!ELEMENT a3 (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b?)>",
    )
    .expect("DTD");
    let auto = DtdAutomaton::build(&dtd).expect("automaton");
    // Same element names at several depths need a recursive DTD: walk a
    // hand-made chain as well, where `a` really nests in `a`.
    let chains: [&[&str]; 4] = [
        &["a", "a", "a", "b"],
        &["r", "a", "x", "a", "b", "b"],
        &["b"],
        &["zzz", "a", "c", "b", "a", "b"],
    ];
    for texts in [
        &["//a//a"][..],
        &["//a//a#", "/a/a"],
        &["/*", "/*/*", "/*/*/*#"],
        &["//*"],
        &["//*#"],
        &["/*//b", "/r/*/b#"],
        &["/a/b#", "//b#", "/*"],
        &["/r/a/b", "/r//b", "//c/b", "/r/a/c/b#"],
        &["/", "//a/*//b"],
        &["/#"],
        &["/r/a//*/b", "//a2//b#", "/r/*//c"],
    ] {
        let paths = PathSet::parse(texts).expect("paths parse");
        walk(&auto, &paths);
        let rel = Relevance::new(&paths);
        for chain in chains {
            let root = rel.root();
            let mut parent = root.clone();
            for depth in 1..=chain.len() {
                let cfg = parent.descend(chain[depth - 1]);
                assert_agree(&rel, &parent, &cfg, &chain[..depth]);
                parent = cfg;
            }
        }
    }
}

/// A path set of more than 64 positions: the configuration spans several
/// words and an advancing position crosses a word boundary.
#[test]
fn configurations_wider_than_a_word_agree() {
    let xmark = Dtd::parse(smpx_datagen::xmark::XMARK_DTD.as_bytes()).expect("XMark DTD");
    let auto = DtdAutomaton::build(&xmark).expect("automaton");
    let texts = [
        "/*",
        "/site/regions/africa/item/description/parlist/listitem/text/keyword#",
        "/site/regions//item/mailbox/mail/text/emph",
        "//open_auctions/open_auction/annotation/description//text#",
        "/site/*/*/item/name",
        "//person//watches/watch",
        "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem//bold",
        "//item//keyword",
        "/site/people/person/profile/interest",
        "/site/regions/asia/item/mailbox/mail/text//keyword#",
        "//text",
        "/site//text",
    ];
    let paths = PathSet::parse(&texts).expect("paths parse");
    let positions: usize = Relevance::new(&paths).plus().iter().map(|p| p.steps.len() + 1).sum();
    assert!(positions > 128, "want at least three words, got {positions} positions");
    assert_eq!(walk(&auto, &paths), instances(&auto));
}

/// The compile takes one relevance step per element instance per relevance
/// it builds — a registry of N queries builds N + 1 — and never re-walks a
/// branch: a deterministic guard where a timing would only drift.
#[test]
fn compile_steps_once_per_instance_per_relevance() {
    for case in analysis_cases() {
        let auto = DtdAutomaton::build_allow_recursion(&case.dtd).expect("automaton");
        let per_relevance = instances(&auto);
        if case.name.starts_with("xmark/") {
            assert_eq!(auto.state_count(), 417);
        }
        let (_, single) = compile_with_counts(&case.dtd, &case.queries[0]).expect("compile");
        assert_eq!(single.relevance_steps, per_relevance, "{}", case.name);
        assert_eq!(single.passes, 1, "{}", case.name);
        let (_, multi) = compile_multi_with_counts(&case.dtd, &case.queries).expect("compile");
        assert_eq!(
            multi.relevance_steps,
            (case.queries.len() + 1) * per_relevance,
            "{}",
            case.name
        );
        assert_eq!(multi.passes, 1, "{}", case.name);
    }
}
