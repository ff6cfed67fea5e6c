//! What the candidate filter decided for the states the benchmark's
//! queries enter (ROADMAP direction 1c, minimal): per multi-keyword state,
//! `|V|`, `lmin` and the two fingerprint offsets with the bytes each
//! keyword holds there. A state the filter cannot help shows here, at
//! compile time, not in a trace.

#[allow(dead_code)] // only the shared case list is used here
mod common;

use common::analysis_cases;
use smpx_core::Prefilter;
use smpx_stringmatch::CommentzWalter;

#[test]
fn filter_choices_of_the_benchmark_states() {
    let wanted =
        ["medline/M1", "medline/M2", "medline/M3", "medline/M4", "medline/M5", "xmark/XM7"];
    let mut multi_keyword_states = 0;
    for case in analysis_cases().iter().filter(|c| wanted.contains(&c.name.as_str())) {
        let pf = Prefilter::compile(&case.dtd, &case.queries[0]).expect("compile");
        for (q, state) in pf.tables().states.iter().enumerate() {
            if state.keywords.len() < 2 {
                continue;
            }
            multi_keyword_states += 1;
            // What `StateMatcher::build` builds for this state.
            let pats: Vec<&[u8]> = state.keywords.iter().map(|k| k.bytes.as_slice()).collect();
            let choice = CommentzWalter::new(&pats).filter_choice();
            let at = format!("{} state {q}: {choice:?}", case.name);
            assert_eq!(choice.keywords, pats.len(), "{at}");
            assert_eq!(choice.lmin, pats.iter().map(|p| p.len()).min().unwrap(), "{at}");
            assert_eq!(choice.anchor, Some(b'<'), "{at}");
            let (o1, o2) = choice.offsets;
            // Both offsets lie inside every keyword they test, past the
            // anchor.
            assert!(1 <= o1 && o1 < o2 && o2 < choice.lmin, "{at}");
            for (p, &(b1, b2)) in pats.iter().zip(&choice.bytes) {
                assert_eq!((p[o1], p[o2]), (b1, b2), "{at}");
                // Every tag starts with `<`: a keyword tested on that byte
                // alone would stop the scan at every tag of the document.
                assert!(b1 != b'<' && b2 != b'<', "{at}");
            }
        }
    }
    assert!(multi_keyword_states >= 15, "only {multi_keyword_states} states checked");
}
