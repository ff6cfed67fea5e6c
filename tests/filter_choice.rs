//! What the candidate filter decided for the states the benchmark's
//! queries enter (ROADMAP direction 1a/1c): per state — single-keyword
//! ones included — `|V|`, `lmin`, the two fingerprint offsets with the
//! bytes each keyword holds there, and how many *foreign* tags of the DTD
//! the pair admits. A state the filter cannot help shows here, at compile
//! time, not in a trace.

#[allow(dead_code)] // only the shared case list is used here
mod common;

use common::{analysis_cases, copy_cases, AnalysisCase};
use smpx_core::Prefilter;
use smpx_stringmatch::FilterChoice;

/// The cases walked: the benchmark's single-query commands.
fn cases() -> Vec<AnalysisCase> {
    let wanted = ["xmark/XM5", "xmark/XM7", "xmark/XM13", "xmark/XM14"];
    analysis_cases()
        .into_iter()
        .filter(|c| wanted.contains(&c.name.as_str()) || c.name.starts_with("medline/"))
        .chain(copy_cases())
        .collect()
}

/// Is `token` foreign to `keywords` — is no keyword a prefix of it?
fn foreign(keywords: &[&[u8]], token: &[u8]) -> bool {
    !keywords.iter().any(|k| token.starts_with(k))
}

/// The foreign tokens offsets `(o1, o2)` admit, one walk of the universe:
/// those holding some keyword's byte at each of the two offsets. A token
/// that ends before an offset holds no keyword byte there.
fn admitted(keywords: &[&[u8]], tokens: &[Vec<u8>], o1: usize, o2: usize) -> usize {
    let holds = |t: &[u8], o: usize| keywords.iter().any(|k| t.get(o) == Some(&k[o]));
    tokens.iter().filter(|t| foreign(keywords, t) && holds(t, o1) && holds(t, o2)).count()
}

#[test]
fn filter_choices_of_the_benchmark_states() {
    let mut states = 0;
    let mut single_keyword_states = 0;
    // (case, keyword) -> (foreign tags admitted, tags extending the keyword).
    let mut seen: Vec<(String, String, usize, usize)> = Vec::new();
    for case in cases() {
        let pf = Prefilter::compile(&case.dtd, &case.queries[0]).expect("compile");
        let tables = pf.tables().clone();
        let tokens: Vec<Vec<u8>> = tables
            .elem_names
            .iter()
            .flat_map(|n| [format!("<{n}").into_bytes(), format!("</{n}").into_bytes()])
            .collect();
        for (q, state) in tables.states.iter().enumerate() {
            let pats: Vec<&[u8]> = state.keywords.iter().map(|k| k.bytes.as_slice()).collect();
            // What the walk of this state decides, in either mode.
            let Some(choice) = pf.filter_choice(q as u32) else {
                assert!(pats.is_empty(), "{} state {q}: no filter", case.name);
                continue;
            };
            states += 1;
            single_keyword_states += (pats.len() == 1) as usize;
            let at = format!("{} state {q}: {choice:?}", case.name);
            let FilterChoice { keywords, lmin, anchor, offsets: (o1, o2), .. } = choice;
            assert_eq!(keywords, pats.len(), "{at}");
            assert_eq!(lmin, pats.iter().map(|p| p.len()).min().unwrap(), "{at}");
            assert_eq!(anchor, Some(b'<'), "{at}");
            // Both offsets lie inside every keyword they test, past the
            // anchor.
            assert!(1 <= o1 && o1 < o2 && o2 < lmin, "{at}");
            for (p, &(b1, b2)) in pats.iter().zip(&choice.bytes) {
                assert_eq!((p[o1], p[o2]), (b1, b2), "{at}");
                // Every tag starts with `<`: a keyword tested on that byte
                // alone would stop the scan at every tag of the document.
                assert!(b1 != b'<' && b2 != b'<', "{at}");
            }
            // The reported count is the brute-force one, and no pair
            // admits fewer.
            assert_eq!(choice.foreign_admitted, admitted(&pats, &tokens, o1, o2), "{at}");
            for p2 in 2..lmin {
                for p1 in 1..p2 {
                    let n = admitted(&pats, &tokens, p1, p2);
                    assert!(n >= choice.foreign_admitted, "{at}: ({p1}, {p2}) admits {n}");
                }
            }
            // Tags that extend a keyword are no filter's to reject: counted
            // apart, never among the foreign ones.
            let extending = tokens
                .iter()
                .filter(|t| pats.iter().any(|k| t.starts_with(k) && t.len() > k.len()))
                .count();
            let vocabulary: Vec<String> =
                pats.iter().map(|p| String::from_utf8_lossy(p).into_owned()).collect();
            seen.push((
                case.name.clone(),
                vocabulary.join(" "),
                choice.foreign_admitted,
                extending,
            ));
        }
    }
    assert!(states >= 80, "only {states} states checked");
    assert!(single_keyword_states >= 50, "only {single_keyword_states} single-keyword states");

    // The states the bytes of the benchmark's documents pass through:
    // (foreign tags admitted, tags extending a keyword).
    let pinned = |case: &str, vocabulary: &str| {
        let row = seen.iter().find(|(c, v, ..)| c == case && v == vocabulary);
        row.map(|&(_, _, foreign, extending)| (foreign, extending))
    };
    // XM13's 18.8 MB, 7.4 MB and 4.9 MB searches, and `xmark-copy`'s two.
    assert_eq!(pinned("xmark/XM13", "</site"), Some((0, 0)));
    assert_eq!(pinned("xmark/XM13", "</regions"), Some((0, 0)));
    assert_eq!(pinned("xmark/XM13", "<australia"), Some((0, 0)));
    assert_eq!(pinned("copy/items", "</site"), Some((0, 0)));
    // `</itemref` and `<namerica` extend these keywords: the boundary
    // check of the runtime rejects them, no pair of offsets can.
    assert_eq!(pinned("copy/items", "</item"), Some((0, 1)));
    assert_eq!(pinned("xmark/XM13", "<name"), Some((0, 1)));
    // M3 and M4 spend the document in one two-keyword state each, with
    // `lmin` = 20 past the end of `</MedlineCitation`: the `Set` tells
    // the keyword from the 15.9 k record ends. M3's other keyword extends
    // `<PersonalNameSubject`, whose 20 bytes no offset below `lmin` gets
    // past; in M1 and M2 `lmin` is short of `</MedlineCitation`'s end
    // and that tag stays admitted (ROADMAP: offsets beyond `lmin`).
    assert_eq!(pinned("medline/M4", "</MedlineCitationSet <CopyrightInformation"), Some((0, 0)));
    assert_eq!(pinned("medline/M3", "</MedlineCitationSet <PersonalNameSubjectList"), Some((1, 0)));
    assert_eq!(pinned("medline/M1", "</MedlineCitationSet <CollectionTitle"), Some((1, 0)));
    assert_eq!(pinned("medline/M2", "</MedlineCitationSet <DataBank"), Some((4, 2)));
}
