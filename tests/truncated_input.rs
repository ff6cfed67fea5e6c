//! Same outcome on every delivery path (ROADMAP aim 3, first slice of
//! direction 4b): a document cut short anywhere — inside a skip, inside an
//! active copy range, inside a tag, inside an opaque subtree — ends in the
//! same `Ok` projection or the same `CoreError` variant and context from
//! `SliceSource`, `ReaderSource` and `PrefetchSource` at every chunk size,
//! and at the named cut points from a real mapping (`MmapSource`, one temp
//! file per cut) as well.
//! The streamed routes flush a copy range as the window moves on, so how
//! many bytes reached the sink before an error may differ; which error
//! surfaces may not.

#[allow(dead_code)] // only `TempDoc` and `both_modes`
mod common;

use common::{both_modes, TempDoc};
use smpx_core::runtime::source::{
    DocSource, MmapSource, PrefetchSource, ReaderSource, SliceSource,
};
use smpx_core::{CoreError, Prefilter};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use std::io::Cursor;

const CHUNKS: &[usize] = &[1, 7, 4096];

/// `b` subtrees are copied, `c` subtrees skipped, `x` is recursive and
/// therefore opaque (crossed by the balanced scan).
const DTD: &[u8] = br#"<!DOCTYPE a [
    <!ELEMENT a (b|c|x)*>
    <!ELEMENT b (#PCDATA|i)*>
    <!ELEMENT i (#PCDATA)>
    <!ELEMENT c (i*)>
    <!ELEMENT x (#PCDATA|x)*>
    <!ATTLIST b id CDATA #IMPLIED>
]>"#;

const DOC: &str = "<a><c><i>skipped text, long enough to span windows</i><i>more</i></c>\
                   <b id=\"q>1\">copied <i>inner</i> text that also spans windows</b>\
                   <x>opaque <x>nested</x> tail</x><c><i>z</i></c><b>last</b></a>";

/// The projection, or the error's variant and context.
fn outcome<S: DocSource>(pf: &mut Prefilter, src: S) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    match pf.filter_source(src, &mut out) {
        Ok(_) => Ok(out),
        Err(e @ (CoreError::UnexpectedEof { .. } | CoreError::UnexpectedToken { .. })) => {
            Err(format!("{e:?}"))
        }
        Err(e) => panic!("a truncated document is no {e:?}"),
    }
}

fn eof(context: &'static str) -> Result<Vec<u8>, String> {
    Err(format!("{:?}", CoreError::UnexpectedEof { context }))
}

#[test]
fn every_prefix_ends_the_same_way_on_every_path() {
    let dtd = Dtd::parse(DTD).expect("dtd");
    let paths = PathSet::parse(&["/*", "/a/b#"]).expect("paths");
    let doc = DOC.as_bytes();
    for mode in both_modes() {
        let mut pf = Prefilter::compile(&dtd, &paths).expect("compile").with_mode(mode);
        for cut in 0..=doc.len() {
            let prefix = &doc[..cut];
            let want = outcome(&mut pf, SliceSource::new(prefix));
            for &chunk in CHUNKS {
                let got = outcome(&mut pf, ReaderSource::new(prefix, chunk));
                assert_eq!(got, want, "{mode:?} cut {cut} reader/{chunk}");
                let src = PrefetchSource::new(Cursor::new(prefix.to_vec()), chunk);
                let got = outcome(&mut pf, src);
                assert_eq!(got, want, "{mode:?} cut {cut} prefetch/{chunk}");
            }
        }
        // The named cases, so the sweep cannot pass by agreeing on nonsense.
        let at = |needle: &str| DOC.find(needle).expect(needle) + needle.len();
        let cut_run = |pf: &mut Prefilter, cut| {
            let want = outcome(pf, SliceSource::new(&doc[..cut]));
            // Mapped whatever its length: `open` would read a file this small.
            let file = TempDoc::new(&doc[..cut]);
            let mapped = MmapSource::map_with_step(file.path(), 4096).expect("map");
            assert!(mapped.is_mapped() || !cfg!(all(unix, target_pointer_width = "64")));
            assert_eq!(outcome(pf, mapped), want, "{mode:?} cut {cut} mmap");
            want
        };
        assert_eq!(cut_run(&mut pf, at("skipped te")), Ok(b"<a>".to_vec()), "inside a skip");
        assert_eq!(cut_run(&mut pf, at("copied <i>in")), eof("copying a subtree"));
        assert_eq!(cut_run(&mut pf, at("<b id=\"q>")), eof("scanning a quoted attribute value"));
        assert_eq!(cut_run(&mut pf, at("<b id=\"q>1\"")), eof("scanning for tag end"));
        assert_eq!(
            cut_run(&mut pf, at("<x>opaque <x>nes")),
            eof("balanced scan for a recursive element")
        );
        let whole = "<a><b id=\"q>1\">copied <i>inner</i> text that also spans windows</b>\
                     <b>last</b></a>";
        assert_eq!(cut_run(&mut pf, doc.len()), Ok(whole.as_bytes().to_vec()));
    }
}
