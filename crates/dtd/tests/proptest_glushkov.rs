//! Property tests for the Glushkov construction: the position automaton
//! must accept exactly the language of the regular expression. The oracle
//! is a direct recursive membership test on the AST (derivative-free
//! brute force over split points).

use proptest::prelude::*;
use smpx_dtd::glushkov::Glushkov;
use smpx_dtd::Regex;

/// Direct membership oracle: O(n³)-ish, fine for tiny inputs.
fn matches_ast(re: &Regex, word: &[usize]) -> bool {
    match re {
        Regex::Name(n) => word.len() == 1 && name_id(n) == word[0],
        Regex::Seq(parts) => seq_matches(parts, word),
        Regex::Choice(parts) => parts.iter().any(|p| matches_ast(p, word)),
        Regex::Opt(inner) => word.is_empty() || matches_ast(inner, word),
        Regex::Star(inner) => star_matches(inner, word),
        Regex::Plus(inner) => {
            if word.is_empty() {
                // One iteration of a nullable inner matches ε.
                matches_ast(inner, &[])
            } else {
                (1..=word.len())
                    .any(|i| matches_ast(inner, &word[..i]) && star_matches(inner, &word[i..]))
            }
        }
    }
}

fn star_matches(inner: &Regex, word: &[usize]) -> bool {
    if word.is_empty() {
        return true;
    }
    (1..=word.len()).any(|i| matches_ast(inner, &word[..i]) && star_matches(inner, &word[i..]))
}

fn seq_matches(parts: &[Regex], word: &[usize]) -> bool {
    match parts {
        [] => word.is_empty(),
        [first, rest @ ..] => (0..=word.len())
            .any(|i| matches_ast(first, &word[..i]) && seq_matches(rest, &word[i..])),
    }
}

const ALPHABET: [&str; 3] = ["x", "y", "z"];

fn name_id(n: &str) -> usize {
    ALPHABET.iter().position(|&a| a == n).expect("known name")
}

/// Random regex over a 3-letter alphabet.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Name("x".into())),
        Just(Regex::Name("y".into())),
        Just(Regex::Name("z".into())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::Seq),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::Choice),
            inner.clone().prop_map(|r| Regex::Opt(Box::new(r))),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.prop_map(|r| Regex::Plus(Box::new(r))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn glushkov_accepts_exactly_the_language(
        re in arb_regex(),
        word in proptest::collection::vec(0usize..3, 0..6),
    ) {
        let g = Glushkov::build(&re, |n| name_id(n) as u32);
        let labels: Vec<u32> = word.iter().map(|&i| i as u32).collect();
        let want = matches_ast(&re, &word);
        prop_assert_eq!(
            g.matches(&labels),
            want,
            "re={:?} word={:?}",
            re,
            labels
        );
    }

    #[test]
    fn nullable_agrees_with_empty_word(re in arb_regex()) {
        let g = Glushkov::build(&re, |n| name_id(n) as u32);
        prop_assert_eq!(g.nullable, matches_ast(&re, &[]));
        prop_assert_eq!(g.matches(&[]), re.nullable());
    }

    #[test]
    fn first_and_last_are_sound(re in arb_regex()) {
        let g = Glushkov::build(&re, |n| name_id(n) as u32);
        // Every single-symbol word accepted must start with a first
        // position's label and end with a last position's label.
        for i in 0..ALPHABET.len() {
            if matches_ast(&re, &[i]) {
                prop_assert!(g.first().any(|p| g.labels[p] == i as u32));
                prop_assert!(g.last().any(|p| g.labels[p] == i as u32));
            }
        }
    }
}
