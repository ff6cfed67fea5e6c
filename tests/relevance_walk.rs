//! The one-walk relevance evaluator against the branch-at-a-time one.
//!
//! `Relevance`'s branch-form predicates are the executable statement of
//! Def. 3 (and what the `TokenProjector` oracle calls); `RelNfa` answers
//! the same questions from configurations carried down the expansion tree
//! on a `ConfigStack`, and is what the static analysis calls. For every
//! state of every automaton the other suites use, and for every relevance
//! built from their path sets, the two must agree on `auto.branch(q)`. The
//! compile skips the subtree of a dead configuration: below one, the branch
//! form must find nothing relevant, `#`-selected, exact or live either.

#[allow(dead_code)] // no documents are generated here
mod common;

use common::{analysis_cases, random_dtd, random_paths, Rand};
use smpx_core::compile::{compile_multi_with_counts, compile_with_counts, CompileCounts};
use smpx_dtd::{Dtd, DtdAutomaton, StateId};
use smpx_paths::{ConfigStack, PathSet, RelConfig, RelNfa, Relevance};

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

/// Walk every instance of `auto` in state order (pre-order), one `push`
/// each, comparing at the empty branch and at every state, and below every
/// dead configuration checking the premise of the compile's cut in the
/// branch form. Returns the number of steps taken and of states checked
/// below a dead one.
fn walk(auto: &DtdAutomaton, paths: &PathSet) -> (usize, usize) {
    let rel = Relevance::new(paths);
    let nfa = RelNfa::new(paths);
    let mut stack = ConfigStack::default();
    stack.start(&nfa);
    assert_agree(&rel, &stack.at(&nfa, 0), &stack.at(&nfa, 0), &[]);
    let mut path: Vec<StateId> = Vec::new();
    let (mut steps, mut cut) = (0, 0);
    for open in auto.states().skip(1).filter(|&q| !auto.is_close(q)) {
        while path.last().copied() != auto.parent(open) {
            path.pop();
            stack.pop();
        }
        stack.push(&nfa, nfa.row(auto.elem_name(open)));
        path.push(open);
        steps += 1;
        let depth = stack.depth();
        let (parent, cfg) = (stack.at(&nfa, depth - 1), stack.at(&nfa, depth));
        assert_eq!(auto.branch(open), auto.branch(auto.dual(open)));
        assert_agree(&rel, &parent, &cfg, &auto.branch(open));
        if cfg.is_dead() {
            for q in (open.0 + 2..auto.subtree_end(open).0).map(StateId) {
                let below = auto.branch(q);
                let live = rel.relevant_tag(&below)
                    || rel.c2(&below)
                    || rel.c1_exact(&below)
                    || rel.may_match_below(&below);
                assert!(!live, "dead at {:?}, live below at {below:?}", auto.branch(open));
                cut += 1;
            }
        }
    }
    (steps, cut)
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
            assert_eq!(walk(&auto, q).0, instances(&auto), "{}", case.name);
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
    let mut cut = 0;
    for seed in 0..400 {
        let mut r = Rand::new(seed);
        let dtd = random_dtd(&mut r);
        let auto = DtdAutomaton::build(&dtd).expect("generated DTDs are non-recursive");
        cut += walk(&auto, &random_paths(&dtd, &mut r)).1;
    }
    assert!(cut > 0, "no state lay below a dead configuration");
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
        let nfa = RelNfa::new(&paths);
        let mut stack = ConfigStack::default();
        for chain in chains {
            stack.start(&nfa);
            for depth in 1..=chain.len() {
                stack.push(&nfa, nfa.row(chain[depth - 1]));
                assert_agree(
                    &rel,
                    &stack.at(&nfa, depth - 1),
                    &stack.at(&nfa, depth),
                    &chain[..depth],
                );
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
        "/site/open_auctions/open_auction/annotation/description/parlist/listitem/text/keyword",
        "/site/closed_auctions/closed_auction/annotation/description//keyword#",
        "/site/regions/europe/item/description/text/bold",
        "//people/person/profile/education",
        "/site/regions/namerica/item/mailbox/mail/from",
        "/site/categories/category/description/parlist/listitem/text",
        "//closed_auction/annotation/author",
        "/site/regions/samerica//item/incategory",
        "/site/people/person/watches/watch",
    ];
    let paths = PathSet::parse(&texts).expect("paths parse");
    let positions: usize = paths.paths().iter().map(|p| p.steps.len() + 1).sum();
    assert!(positions > 128, "want at least three words, got {positions} positions");
    assert_eq!(walk(&auto, &paths).0, instances(&auto));
}

/// The work counts of each analysis case's compile, as `(relevance steps,
/// gap-search nodes settled, hazard-scan visits)`: the first query alone,
/// then the registry of all of them (N + 1 walks). A walk skips the subtree
/// of a dead configuration, so XM5 visits 16 of XMark's 208 instances; the
/// contraction and the orientation analysis cross an unselected instance
/// in one step. A change that walks into a dead branch again, re-walks
/// one, or relaxes the interior of an instance nothing selects shows here
/// as a count rather than as a drift in a timing. Re-pin from the listing
/// the failure prints, and say why in the change.
const PINNED: &[(&str, [usize; 3], [usize; 3])] = &[
    ("xmark/XM5", [16, 12, 68], [32, 12, 102]),
    ("xmark/XM13", [26, 17, 96], [52, 17, 144]),
    ("xmark/XM7", [208, 344, 774], [416, 344, 1161]),
    ("xmark/XM14", [208, 133, 350], [416, 133, 525]),
    ("xmark/standing-1", [23, 17, 98], [46, 17, 147]),
    ("xmark/standing-10", [23, 17, 98], [348, 73, 900]),
    ("xmark/standing-100", [23, 17, 98], [2631, 130, 6746]),
    ("medline/M1", [62, 46, 172], [124, 46, 258]),
    ("medline/M2", [62, 44, 176], [124, 44, 264]),
    ("medline/M3", [62, 23, 120], [124, 23, 180]),
    ("medline/M4", [62, 66, 170], [124, 66, 255]),
    ("medline/M5", [18, 15, 82], [36, 15, 123]),
    ("protein/multi", [38, 22, 92], [114, 22, 185]),
    ("rec-a/0", [3, 0, 23], [6, 0, 35]),
    ("rec-a/1", [3, 0, 23], [6, 0, 35]),
    ("rec-a/2", [3, 2, 19], [6, 2, 29]),
    ("rec-a/3", [3, 2, 19], [6, 2, 29]),
    ("rec-r/0", [3, 0, 23], [6, 0, 35]),
    ("rec-r/multi", [3, 0, 23], [9, 0, 45]),
    ("rec-root/0", [1, 0, 3], [2, 0, 5]),
    ("rec-root/1", [1, 0, 3], [2, 0, 5]),
    ("rec-parlist/0", [6, 2, 28], [12, 2, 42]),
    ("ambiguous/0", [6, 3, 48], [12, 3, 80]),
    ("ambiguous/0-multi", [6, 3, 48], [27, 0, 96]),
    ("ambiguous/1", [6, 3, 60], [12, 3, 100]),
    ("ambiguous/1-multi", [6, 3, 60], [33, 0, 124]),
    ("ambiguous/2", [4, 1, 35], [8, 1, 57]),
    ("ambiguous/2-multi", [4, 1, 35], [19, 0, 69]),
];

fn work(c: CompileCounts) -> [usize; 3] {
    [c.relevance_steps, c.gap_nodes, c.hazard_visits]
}

#[test]
fn compile_steps_once_per_instance_per_relevance() {
    let mut got = Vec::new();
    for case in analysis_cases() {
        let auto = DtdAutomaton::build_allow_recursion(&case.dtd).expect("automaton");
        let per_relevance = instances(&auto);
        if case.name.starts_with("xmark/") {
            assert_eq!(auto.state_count(), 417);
        }
        let (_, single) = compile_with_counts(&case.dtd, &case.queries[0]).expect("compile");
        assert!(single.relevance_steps <= per_relevance, "{}", case.name);
        assert_eq!(single.passes, 1, "{}", case.name);
        let (_, multi) = compile_multi_with_counts(&case.dtd, &case.queries).expect("compile");
        let walks = case.queries.len() + 1;
        assert!(multi.relevance_steps <= walks * per_relevance, "{}", case.name);
        assert_eq!(multi.passes, 1, "{}", case.name);
        got.push((case.name, work(single), work(multi)));
    }
    let listing: String =
        got.iter().map(|(n, s, m)| format!("    (\"{n}\", {s:?}, {m:?}),\n")).collect();
    let xm5 = got.iter().find(|(n, ..)| n == "xmark/XM5").map(|(_, s, _)| s[0]);
    assert!(xm5.is_some_and(|s| s <= 16), "XM5 takes {xm5:?} relevance steps");
    assert_eq!(got.len(), PINNED.len(), "case list changed; current counts:\n{listing}");
    for ((name, single, multi), &pin) in got.iter().zip(PINNED) {
        assert_eq!((name.as_str(), *single, *multi), pin, "current counts:\n{listing}");
    }
}
