//! The release step is invisible (ARCHITECTURE invariant 12, mapped
//! route): a keyword search and the balanced scan stop at every absolute
//! multiple of the step to raise the guard, and a mapping hands the pages
//! behind it back — and nothing a run reports may show where those
//! multiples fall. With the step shrunk to one page:
//!
//! * a slice and a mapped file of one document agree on output, verdict
//!   and the whole `RunStats` (both are cut at the same absolute offsets),
//!   with a keyword, a tag's attribute list, a quoted `>`, an opaque
//!   subtree's inner tags and an open copy range astride every boundary,
//!   and across a skip of more than eight steps inside an open copy range;
//! * against the uncut run (a step no document reaches — the search the
//!   parent of this change made) the output and the exact counters are
//!   identical, and the search-effort counters of the vectorized search
//!   drift by at most what re-searching one overlap (`max_kw_len - 1`
//!   bytes) per boundary costs.

#[allow(dead_code)] // only `TempDoc`
mod common;

use common::TempDoc;
use smpx_core::runtime::source::{MmapSource, SliceSource};
use smpx_core::{MultiVerdict, Prefilter, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, ScanMode};

const STEP: usize = 4096;
/// No document here reaches it: a run that is never cut.
const UNCUT: usize = 1 << 40;

/// `keep` subtrees are copied by query 0, `drop` subtrees skipped, `x` is
/// recursive and therefore opaque (crossed by the balanced scan, which
/// must reject `<xy`; copied by query 1).
const DTD: &str = "<!DOCTYPE a [ <!ELEMENT a (keep|drop|x)*> <!ELEMENT keep (#PCDATA)> \
                   <!ELEMENT drop (#PCDATA)> <!ELEMENT x (#PCDATA|x|xy)*> \
                   <!ELEMENT xy (#PCDATA)> <!ATTLIST keep id CDATA #IMPLIED> ]>";

/// A `<drop>` element of exactly `len` bytes.
fn filler(len: usize) -> String {
    const EMPTY: usize = "<drop></drop>".len();
    assert!(len >= EMPTY, "no room for a filler of {len} bytes");
    format!("<drop>{}</drop>", "-".repeat(len - EMPTY))
}

/// `records` one after the other, byte `anchor` of each placed `shift`
/// bytes before the next step boundary that leaves room for a filler —
/// every boundary in turn when a record is shorter than a step.
fn document(records: &[(String, usize)], shift: usize) -> Vec<u8> {
    let mut doc = String::from("<a>");
    for (record, anchor) in records {
        let earliest = doc.len() + filler(13).len() + anchor + shift;
        let boundary = earliest.div_ceil(STEP) * STEP;
        doc += &filler(boundary - shift - anchor - doc.len());
        assert_eq!((doc.len() + anchor + shift) % STEP, 0);
        doc += record;
    }
    doc += "<keep>last</keep></a>";
    doc.into_bytes()
}

/// What each feature puts astride a boundary, as `(record, anchor)`: the
/// document builder sweeps `shift` so the boundary falls on every byte
/// from `anchor` to `anchor + SHIFTS`.
fn features() -> Vec<(&'static str, Vec<(String, usize)>)> {
    let at = |record: &str, needle: &str| (record.to_string(), record.find(needle).expect(needle));
    let long = "text with no markup ".repeat(9 * STEP / 20 + 1);
    assert!(long.len() > 8 * STEP);
    let mut out = vec![
        ("open keyword", vec![at("<keep id=\"k\">kept</keep>", "<keep"); 24]),
        ("close keyword", vec![at("<keep>kept</keep>", "</keep"); 24]),
        ("tag end", vec![at("<keep id=\"a long attribute value\">kept</keep>", "attr"); 24]),
        ("quoted >", vec![at("<keep id=\"q>>>>>>>>>>1\"  >kept</keep>", ">>"); 24]),
        ("bachelor", vec![at("<keep id=\"k\"  />", "  />"); 24]),
        ("opaque inner open", vec![at("<x>opaque <x>nested</x> tail</x>", "<x>nes"); 24]),
        ("opaque inner close", vec![at("<x>opaque <x>nested</x> tail</x>", "</x> tail"); 24]),
        ("opaque prefix open", vec![at("<x>a <xy>b</xy> <x>n</x> c</x>", "<xy>"); 24]),
        ("opaque prefix close", vec![at("<x>a <xy>b</xy> <x>n</x> c</x>", "</xy>"); 24]),
        ("open copy range", vec![at("<keep>kept text across the boundary</keep>", "across"); 24]),
    ];
    // One search of more than eight steps, inside an open copy range
    // (`keep`: a keyword search; `x`: the balanced scan) and outside one.
    let skips = [
        at(&format!("<keep>{long}</keep>"), "text"),
        at(&format!("<x>{long}<x>{long}</x>{long}</x>"), "text"),
        at(&format!("<drop>{long}</drop>"), "text"),
        at("<keep>after the skips</keep>", "after"),
    ];
    out.push(("skip of 8+ steps", skips.to_vec()));
    out
}

/// The boundary is swept over this many bytes from each anchor.
const SHIFTS: usize = 12;

struct Run {
    out: Vec<u8>,
    verdict: Option<MultiVerdict>,
    stats: RunStats,
}

fn run<S: smpx_core::runtime::source::DocSource>(pf: &mut Prefilter, multi: bool, src: S) -> Run {
    if multi {
        let (out, verdict, stats) = pf.run_multi(src, Vec::new()).expect("registry run");
        Run { out, verdict: Some(verdict), stats }
    } else {
        let mut out = Vec::new();
        let stats = pf.filter_source(src, &mut out).expect("run");
        Run { out, verdict: None, stats }
    }
}

/// The exact counters: what the run found, not how hard it looked.
fn exact(s: &RunStats) -> [u64; 8] {
    [
        s.input_bytes,
        s.output_bytes,
        s.initial_jump_chars,
        s.tokens_matched,
        s.false_matches,
        s.io_window_bytes,
        s.match_events,
        s.shards,
    ]
}

#[test]
fn step_boundaries_change_nothing_a_run_reports() {
    step_boundaries_in(ScanMode::Walk(memscan::kind()));
}

#[test]
fn step_boundaries_change_nothing_in_the_specification_either() {
    step_boundaries_in(ScanMode::Spec);
}

/// The cut, mapped and uncut runs of every feature document in `mode`: one
/// test per mode, so the two run side by side.
fn step_boundaries_in(mode: ScanMode) {
    let dtd = Dtd::parse(DTD.as_bytes()).expect("dtd");
    let paths = |p: &[&str]| PathSet::parse(p).expect("paths");
    let compile = |multi: bool, step: usize| {
        let pf = if multi {
            Prefilter::compile_multi(&dtd, &[paths(&["/a/keep#"]), paths(&["/a/x#"])])
        } else {
            Prefilter::compile(&dtd, &paths(&["/*", "/a/keep#"]))
        };
        pf.expect("compile").with_release_step(step).with_mode(mode)
    };
    let accel = mode != ScanMode::Spec;
    for multi in [false, true] {
        let mut cut = compile(multi, STEP);
        let mut uncut = compile(multi, UNCUT);
        let overlap = cut.tables().max_kw_len as u64;
        for (feature, records) in features() {
            for shift in 0..SHIFTS {
                let label = format!("{feature} shift {shift} multi {multi} {mode:?}");
                let doc = document(&records, shift);
                let tmp = TempDoc::new(&doc);
                let slice = run(&mut cut, multi, SliceSource::new(&doc));
                let mapped = MmapSource::map_with_step(tmp.path(), STEP).expect("map");
                assert!(
                    mapped.is_mapped() || !cfg!(all(unix, target_pointer_width = "64")),
                    "{label}: expected a real mapping"
                );
                let map = run(&mut cut, multi, mapped);
                assert!(map.out == slice.out, "{label}: mapped output diverged");
                assert_eq!(map.verdict, slice.verdict, "{label}");
                assert_eq!(map.stats, slice.stats, "{label}: slice and mapping are cut alike");

                let whole = run(&mut uncut, multi, SliceSource::new(&doc));
                assert!(whole.out == slice.out, "{label}: the cuts changed the output");
                assert_eq!(whole.verdict, slice.verdict, "{label}");
                assert_eq!(exact(&whole.stats), exact(&slice.stats), "{label}");
                assert!(slice.out.ends_with(b"<keep>last</keep></a>"), "{label}: selects");
                // The candidate walk passes every alignment once, so a
                // boundary costs one overlap searched again: that many
                // bytes scanned, the shift that closes the miss and the
                // one back to a candidate in the overlap, that candidate
                // compared twice. The scalar shift loops restart their
                // alignment phase at a cut, so what they compare from
                // there to the next token depends on the text: a loose
                // relative bound, against searching anything twice.
                let cuts = (doc.len() / STEP) as u64;
                let drift = |a: u64, b: u64, per_cut: u64, what: &str| {
                    let slack = if accel { 0 } else { b / 4 + cuts * overlap * overlap };
                    assert!(
                        a.abs_diff(b) <= cuts * per_cut + slack,
                        "{label}: {what} {a} cut, {b} uncut, {cuts} boundaries"
                    );
                };
                let (c, u) = (&slice.stats, &whole.stats);
                drift(c.bytes_scanned, u.bytes_scanned, overlap - 1, "bytes_scanned");
                drift(c.shifts, u.shifts, 2, "shifts");
                drift(c.shift_total, u.shift_total, overlap, "shift_total");
                drift(c.chars_compared, u.chars_compared, overlap * overlap, "chars_compared");
            }
        }
    }
}
