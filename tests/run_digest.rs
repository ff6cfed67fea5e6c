//! What a run does with the compiled tables, pinned.
//!
//! `compile_digest.rs` pins the tables and `dtd_digest.rs` the schema
//! side; this suite pins the runs. Every automaton of
//! `common::analysis_cases`, and the protein queries of `table_protein`,
//! runs over one seeded document of its DTD — `DOC_BYTES` of
//! `smpx_datagen` output for XMark, MEDLINE and protein, a
//! `common::random_doc` (the largest of 64 seeds) for the small recursive
//! and ambiguous DTDs — in
//! both scan modes, from a slice, a mapping, and readers at chunks 7 and
//! 4096. Three digests per case:
//!
//! * **exact** — the output bytes, the verdict, `tokens_matched`,
//!   `false_matches`, `match_events`, `output_bytes`,
//!   `initial_jump_chars`, the same from every route in both modes, and
//!   each route's `io_window_bytes`, the same in both modes;
//! * **vector effort** and **scalar effort** — `chars_compared`,
//!   `bytes_scanned`, `shifts` and `shift_total` on every route: how hard
//!   the vector walk, and the paper's Boyer–Moore and Commentz–Walter
//!   loops (`SMPX_NO_SIMD=1`), looked.
//!
//! The rule: an exact digest changes only with a correctness fix that
//! says why; an effort digest changes only in a change that restates
//! ARCHITECTURE §11 "What the counters mean" and records the new value.
//!
//! The scan mode is the prefilter's: the modes of a case run side by side
//! on threads of their own — the specification, and the walk on every
//! scan kind the CPU runs, each of which must reproduce the vector
//! digests.

#[allow(dead_code)] // the case list, `random_doc` and `TempDoc`
mod common;

use common::{analysis_cases, random_doc, AnalysisCase, Rand, TempDoc};
use smpx_bench::queries::PROTEIN_QUERIES;
use smpx_core::runtime::source::{DocSource, MmapSource, ReaderSource};
use smpx_core::{MultiVerdict, Prefilter, RunStats, SliceSource};
use smpx_datagen::{medline, protein, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan::{self, ScanKind, ScanMode};

/// Size of the generated XMark, MEDLINE and protein documents.
const DOC_BYTES: usize = 256 << 10;

/// The delivery routes every case runs from, in digest order.
const ROUTES: [&str; 4] = ["slice", "mmap", "reader/7", "reader/4096"];

/// FNV-1a over the numbers and bytes of a run.
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

/// The analysis cases, then `table_protein`'s queries one by one.
fn cases() -> Vec<AnalysisCase> {
    let protein = Dtd::parse(protein::PROTEIN_DTD.as_bytes()).expect("protein DTD");
    let tables = PROTEIN_QUERIES.iter().map(|(id, paths)| AnalysisCase {
        name: format!("protein/{id}"),
        dtd: protein.clone(),
        queries: vec![PathSet::parse(paths).expect("protein paths parse")],
    });
    analysis_cases().into_iter().chain(tables).collect()
}

/// The document a case runs over: the generator of its DTD's family.
fn document(case: &AnalysisCase) -> Vec<u8> {
    let opts = GenOptions::sized(DOC_BYTES);
    match case.name.split('/').next() {
        Some("xmark") => xmark::generate(opts),
        Some("medline") => medline::generate(opts),
        Some("protein") => protein::generate(opts),
        // The largest of 64 seeds: these generators stop early.
        _ => (0..64)
            .map(|seed| random_doc(&case.dtd, &mut Rand::new(seed)))
            .max_by_key(Vec::len)
            .expect("64 documents"),
    }
}

/// A registry compile when the case has several queries or is a
/// standing-query case, the plain compile otherwise (as the compile
/// digests do).
fn compile(case: &AnalysisCase) -> Prefilter {
    if case.queries.len() > 1 || case.name.contains("standing") {
        Prefilter::compile_multi(&case.dtd, &case.queries).expect("compile multi")
    } else {
        Prefilter::compile(&case.dtd, &case.queries[0]).expect("compile")
    }
}

fn run_from<S: DocSource>(pf: &mut Prefilter, src: S) -> (Vec<u8>, MultiVerdict, RunStats) {
    pf.run_multi(src, Vec::new()).expect("run")
}

/// One run of `pf` over `doc` from route `route` of [`ROUTES`]: the digest
/// of what it found, less the window, and its stats.
fn run(pf: &mut Prefilter, route: usize, doc: &[u8], file: &TempDoc) -> (u64, RunStats) {
    let (out, verdict, stats) = match route {
        0 => run_from(pf, SliceSource::new(doc)),
        1 => run_from(pf, MmapSource::open(file.path()).expect("map")),
        2 => run_from(pf, ReaderSource::new(doc, 7)),
        _ => run_from(pf, ReaderSource::new(doc, 4096)),
    };
    let mut found = Fnv::new();
    found.num(out.len() as u64);
    found.bytes(&out);
    for id in verdict.matched_ids() {
        found.num(id.0 as u64);
    }
    let s = &stats;
    for n in [s.tokens_matched, s.false_matches, s.match_events, s.output_bytes] {
        found.num(n);
    }
    found.num(s.initial_jump_chars);
    (found.0, stats)
}

/// What the runs of a case in one mode found, and how hard they looked.
struct ModeRuns {
    /// What every route found (the same on each).
    found: u64,
    /// Each route's `io_window_bytes`.
    windows: [u64; ROUTES.len()],
    /// The effort digest.
    effort: u64,
    /// `[chars_compared, bytes_scanned, shifts, shift_total]` of the slice
    /// run.
    slice: [u64; 4],
}

/// Every route of `case` over `doc` on one prefilter in `mode`.
fn mode_runs(case: &AnalysisCase, mode: ScanMode, doc: &[u8], file: &TempDoc) -> ModeRuns {
    let mut pf = compile(case).with_mode(mode);
    let mut first: Option<u64> = None;
    let mut effort = Fnv::new();
    let mut windows = [0; ROUTES.len()];
    let mut slice = [0; 4];
    for (route, name) in ROUTES.iter().enumerate() {
        let (found, s) = run(&mut pf, route, doc, file);
        let at = format!("{} {mode:?} {name}", case.name);
        assert!(s.tokens_matched > 0, "{at}: the run finds no token");
        assert_eq!(*first.get_or_insert(found), found, "{at}: not what the first run found");
        windows[route] = s.io_window_bytes;
        let counters = [s.chars_compared, s.bytes_scanned, s.shifts, s.shift_total];
        counters.iter().for_each(|&n| effort.num(n));
        if route == 0 {
            slice = counters;
        }
    }
    ModeRuns { found: first.expect("a run"), windows, effort: effort.0, slice }
}

/// A case's digests, and the effort counters of its slice runs.
struct Digests {
    /// Exact, vector effort, scalar effort.
    pinned: (u64, u64, u64),
    /// `[chars_compared, bytes_scanned, shifts, shift_total]`, vector and
    /// scalar.
    slice: [[u64; 4]; 2],
}

/// The modes a case runs in: the walk on every kind this CPU runs, the
/// widest first, then the specification.
fn modes() -> Vec<ScanMode> {
    let kinds = [ScanKind::Avx512, ScanKind::Avx2, ScanKind::Sse2, ScanKind::Swar];
    let walks = kinds.into_iter().filter(|&k| memscan::supported(k)).map(ScanMode::Walk);
    walks.chain([ScanMode::Spec]).collect()
}

/// Every mode of `modes` on a prefilter and a thread of its own, side by
/// side: each kind must find what the widest finds, as hard; the
/// specification what it finds.
fn digests(case: &AnalysisCase, modes: &[ScanMode]) -> Digests {
    let doc = document(case);
    let file = TempDoc::new(&doc);
    let runs: Vec<ModeRuns> = std::thread::scope(|s| {
        let (doc, file) = (&doc, &file);
        let threads: Vec<_> =
            modes.iter().map(|&mode| s.spawn(move || mode_runs(case, mode, doc, file))).collect();
        threads.into_iter().map(|t| t.join().expect("a mode's runs")).collect()
    });
    let (walk, spec) = (&runs[0], &runs[runs.len() - 1]);
    for (mode, run) in modes.iter().zip(&runs) {
        let at = format!("{} {mode:?}", case.name);
        assert_eq!(run.found, walk.found, "{at}: not what the widest walk found");
        assert_eq!(run.windows, walk.windows, "{at}: the window depends on the mode");
        if *mode != ScanMode::Spec {
            assert_eq!(run.effort, walk.effort, "{at}: the vector effort depends on the kind");
        }
    }
    let mut exact = Fnv::new();
    walk.windows.iter().chain(&spec.windows).for_each(|&n| exact.num(n));
    exact.num(walk.found);
    Digests { pinned: (exact.0, walk.effort, spec.effort), slice: [walk.slice, spec.slice] }
}

/// `(case, exact, vector effort, scalar effort)`, each row under the
/// effort counters of its slice runs, vector and scalar:
/// `[chars_compared, bytes_scanned, shifts, shift_total]`.
#[rustfmt::skip]
const PINNED: &[(&str, u64, u64, u64)] = &[
    // [3408, 253589, 212, 253021] [28120, 284, 23283, 253023]
    ("xmark/XM5", 0xc2afe008536240ec, 0x1e9e2b2e27a50b84, 0xe0378e28590564d6),
    // [1486, 258867, 139, 258207] [50353, 492, 42953, 258213]
    ("xmark/XM13", 0x5223826272b4bd55, 0x100bf31c2e3c305c, 0xb53422cd27bae147),
    // [14907, 229915, 1160, 227669] [65859, 1086, 38634, 230463]
    ("xmark/XM7", 0x78d39a702491078a, 0x4b261760d35fee4d, 0xb0b6feffd5891674),
    // [10587, 241794, 1108, 237279] [63824, 3236, 46669, 237367]
    ("xmark/XM14", 0xffbdd80a132a50c9, 0x58e139d24cd29891, 0xd816df4ba47cf9b5),
    // [4503, 251027, 171, 250343] [29656, 342, 24068, 250530]
    ("xmark/standing-1", 0xb9a07c80bdab90c9, 0x1ae8d11e88b7ca5f, 0xbd2b397dad85cbcf),
    // [12379, 228323, 789, 220398] [48021, 6635, 33752, 220933]
    ("xmark/standing-10", 0x5c7117b060b5d8ed, 0x2c4abb2439dca7c2, 0x16e961da76d428d1),
    // [61073, 191148, 3612, 163920] [104470, 20772, 37614, 165598]
    ("xmark/standing-100", 0x283f070b06c3f657, 0xcc537b01719b3089, 0xf33fca45f026bd0a),
    // [2381, 264018, 132, 263884] [26357, 2, 22034, 264018]
    ("medline/M1", 0x2f82e86d03cb2d57, 0x6ae0c24a2764ef12, 0xf581e45cfdfeafd7),
    // [7997, 261942, 547, 261180] [43137, 138, 38715, 261841]
    ("medline/M2", 0xbf75abdaf20bc2f1, 0x5b969d274b441d9e, 0xdaf406d09080796e),
    // [1225, 262878, 36, 262753] [25615, 58, 22209, 262834]
    ("medline/M3", 0x97a8d0c3908552fc, 0x634f6665281bcf4e, 0xb40401af1870b55e),
    // [1166, 262543, 52, 262439] [26912, 52, 22193, 262464]
    ("medline/M4", 0x4fd15780b50afa2e, 0xb9b896331fac09da, 0x98039fc8d5ece6dd),
    // [12308, 233609, 520, 228376] [34149, 4557, 20279, 228645]
    ("medline/M5", 0x5e7c8c520904ea82, 0xd9f9727cfcf63e3a, 0xa1d5d171012afc6a),
    // [25728, 234997, 1872, 229690] [65740, 2580, 34818, 231133]
    ("protein/multi", 0x83cdab74365b08df, 0x01802578b4e56460, 0x5765868943c51459),
    // [87, 182, 16, 91] [131, 65, 68, 108]
    ("rec-a/0", 0xe22c5d935a4a813e, 0x9473f38436267675, 0xffcbfa974908982a),
    // [87, 182, 16, 91] [131, 65, 68, 108]
    ("rec-a/1", 0x9a8b3e30a8dc5383, 0x9473f38436267675, 0xffcbfa974908982a),
    // [87, 182, 16, 91] [131, 65, 68, 108]
    ("rec-a/2", 0x235713415ed09f6d, 0x9473f38436267675, 0xffcbfa974908982a),
    // [87, 182, 16, 91] [131, 65, 68, 108]
    ("rec-a/3", 0x9a8b3e30a8dc5383, 0x9473f38436267675, 0xffcbfa974908982a),
    // [76, 46, 0, 0] [86, 24, 10, 10]
    ("rec-r/0", 0x240fefa683eff0bd, 0x88540974251c8dfb, 0x16631797fcd458c4),
    // [76, 46, 0, 0] [86, 24, 10, 10]
    ("rec-r/multi", 0xc5975e6e9e6e1a40, 0x88540974251c8dfb, 0x16631797fcd458c4),
    // [64, 88, 12, 55] [93, 14, 44, 67]
    ("rec-root/0", 0xe9211f2165b87706, 0x441de529cadd1699, 0x10e73fde1b8ba9b6),
    // [64, 88, 12, 55] [93, 14, 44, 67]
    ("rec-root/1", 0xc15a379f0389de42, 0x441de529cadd1699, 0x10e73fde1b8ba9b6),
    // [105, 517, 2, 491] [171, 14, 66, 492]
    ("rec-parlist/0", 0x56636608a22ce69e, 0x2452a77cd72f2de6, 0xd45b4e454cfecd51),
    // [48, 101, 5, 82] [77, 10, 28, 86]
    ("ambiguous/0", 0x37685905489b593f, 0xc012eadd3ca8ac25, 0x7935207a50417396),
    // [88, 81, 6, 46] [108, 18, 19, 54]
    ("ambiguous/0-multi", 0x741d21dc7bc940ac, 0xc397e2b400e36bb4, 0x383ab8977a04026e),
    // [69, 146, 4, 118] [110, 14, 41, 124]
    ("ambiguous/1", 0x283c18f6935ca0e3, 0xc512f070138db347, 0x2ad7a619f260c9cd),
    // [140, 97, 6, 46] [160, 26, 20, 62]
    ("ambiguous/1-multi", 0xc137510361c58867, 0xcb8386dfa43bde67, 0x08327730b80480ce),
    // [28, 72, 3, 56] [51, 8, 21, 56]
    ("ambiguous/2", 0x655682601d4c664f, 0x08a0f2eb78fed3bd, 0x9ad3634479756d90),
    // [42, 66, 4, 42] [60, 12, 16, 43]
    ("ambiguous/2-multi", 0x7a7f235f8995202b, 0x5b44e8d77209d0a6, 0xa6e8eb6d68cbfb5c),
    // [9002, 219624, 503, 215798] [29894, 2942, 20522, 215802]
    ("protein/P1", 0x8b3877c841189e81, 0x717eac74e3fd845f, 0xe54f2f6d4fea2130),
    // [12421, 240176, 931, 233750] [49016, 5124, 34004, 233911]
    ("protein/P2", 0x7a5ac0f7b91e425c, 0xac259eb84aaee258, 0x3502623e7e5deb57),
    // [7385, 218448, 295, 215210] [34999, 2648, 25010, 215214]
    ("protein/P3", 0x3eb5846fe377edf7, 0xf718199360eba776, 0xe08fabc1e17eb1fa),
    // [6481, 259911, 526, 258819] [49443, 432, 39537, 258975]
    ("protein/P4", 0x94972ceda328aa48, 0x99ca9873be3d016d, 0xf1def386f52def52),
    // [14673, 222481, 957, 217771] [41890, 3384, 26754, 217923]
    ("protein/P5", 0xc03d58eaffea9ea7, 0xa5718afa57fbb454, 0x6733b3cfdc23e6fb),
];

#[test]
fn runs_reproduce_the_pinned_digests() {
    let modes = modes();
    for kind in [ScanKind::Avx512, ScanKind::Avx2, ScanKind::Sse2] {
        if !modes.contains(&ScanMode::Walk(kind)) {
            eprintln!("runs_reproduce_the_pinned_digests: skipped {kind:?}, not on this CPU");
        }
    }
    let got: Vec<(String, Digests)> =
        cases().iter().map(|c| (c.name.clone(), digests(c, &modes))).collect();
    // The current table, in the layout of `PINNED`.
    let listing: String = got
        .iter()
        .map(|(n, Digests { pinned: (e, v, s), slice: [sv, ss] })| {
            format!("    // {sv:?} {ss:?}\n    (\"{n}\", {e:#018x}, {v:#018x}, {s:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), PINNED.len(), "case list changed; current digests:\n{listing}");
    for ((name, Digests { pinned: (e, v, s), .. }), &(pin_name, pe, pv, ps)) in
        got.iter().zip(PINNED)
    {
        assert_eq!(name, pin_name, "case order changed; current digests:\n{listing}");
        assert_eq!(*e, pe, "{name}: what the run found moved; current digests:\n{listing}");
        assert_eq!(*v, pv, "{name}: the vector effort moved; current digests:\n{listing}");
        assert_eq!(*s, ps, "{name}: the scalar effort moved; current digests:\n{listing}");
    }
}
