//! `smpx --threads 2` ≡ `smpx --threads 1`, driving the real binary: the
//! pooled batch writes its projections in argument order through recycled
//! buffers — the input next in line straight into the output — so stdout
//! is byte-identical to the sequential loop's on a 4096-file and an 8-file
//! batch × `--mmap`/reader × single-query / multi-query / lifecycle; a
//! batch with a missing file in the middle leaves the same prefix and the
//! same message at both widths; a document that fails mid-run, small or
//! large enough to become the next in line while it runs, leaves the same
//! bytes (its own partial projection included), message and exit code;
//! and a batch led or closed by its largest document is byte-identical.

use smpx_datagen::{xmark, GenOptions};
use smpx_stringmatch::memscan::ScanMode;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory holding the XMark DTD and `n` generated documents
/// of about `bytes` each; removed on drop.
struct Batch {
    dir: PathBuf,
    docs: Vec<String>,
}

impl Batch {
    fn new(tag: &str, n: usize, bytes: usize) -> Batch {
        let dir = std::env::temp_dir().join(format!("smpx-threads-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("site.dtd"), xmark::XMARK_DTD).expect("write dtd");
        let docs = (0..n)
            .map(|i| {
                let path = dir.join(format!("d{i:04}.xml"));
                let doc = xmark::generate(GenOptions::sized(bytes).with_seed(i as u64 + 1));
                std::fs::write(&path, doc).expect("write doc");
                path.to_string_lossy().into_owned()
            })
            .collect();
        Batch { dir, docs }
    }

    fn smpx(&self, args: &[&str]) -> Output {
        let dtd = self.dir.join("site.dtd");
        Command::new(env!("CARGO_BIN_EXE_smpx"))
            .arg("--dtd")
            .arg(dtd)
            .args(args)
            .output()
            .expect("run smpx")
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The three ways the CLI runs a batch: one query, a registry, and a
/// registry edited halfway through the inputs.
fn workloads(docs: &[String]) -> Vec<(&'static str, Vec<&str>)> {
    let files = || docs.iter().map(String::as_str);
    let (head, tail) = docs.split_at(docs.len() / 2);
    let single: Vec<&str> =
        ["--paths", "/*,/site/people/person/name#"].into_iter().chain(files()).collect();
    let multi: Vec<&str> = ["--query", "//person/name", "--query", "//item/location"]
        .into_iter()
        .chain(files())
        .collect();
    let lifecycle: Vec<&str> = ["--query", "//person/name"]
        .into_iter()
        .chain(head.iter().map(String::as_str))
        // One edit: a burst of edits may publish as one generation or two,
        // and the verdict lines print the generation number.
        .chain(["--add-query", "//item/location"])
        .chain(tail.iter().map(String::as_str))
        .collect();
    vec![("single", single), ("multi", multi), ("lifecycle", lifecycle)]
}

/// stdout and the verdict lines (which name every input in order) agree
/// between the widths, for every workload and delivery.
fn assert_widths_agree(batch: &Batch) {
    for (name, args) in workloads(&batch.docs) {
        for delivery in [&[][..], &["--mmap"][..]] {
            let run = |threads: &str| {
                let out = batch.smpx(&[&args[..], delivery, &["--threads", threads]].concat());
                assert!(out.status.success(), "{name} {delivery:?}: {}", stderr_of(&out));
                assert!(!out.stdout.is_empty(), "{name} {delivery:?}: empty projection");
                out
            };
            let (seq, par) = (run("1"), run("2"));
            assert!(
                seq.stdout == par.stdout,
                "{name} {delivery:?}: --threads 2 changed the output"
            );
            assert_eq!(stderr_of(&seq), stderr_of(&par), "{name} {delivery:?}: verdict lines");
        }
    }
}

#[test]
fn four_thousand_small_files_project_the_same_bytes_at_both_widths() {
    assert_widths_agree(&Batch::new("small", 4096, 1024));
}

#[test]
fn eight_mapped_size_files_project_the_same_bytes_at_both_widths() {
    // Above the 64 KiB map threshold: `--mmap` really maps these.
    assert_widths_agree(&Batch::new("large", 8, 192 << 10));
}

#[test]
fn a_missing_file_mid_batch_leaves_the_same_prefix_and_message_at_both_widths() {
    let batch = Batch::new("missing", 8, 8 << 10);
    let mut docs = batch.docs.clone();
    let missing = batch.dir.join("not-there.xml").to_string_lossy().into_owned();
    docs[4] = missing.clone();
    let prefix = batch.smpx(
        &["--paths", "/*,/site/people/person/name#"]
            .into_iter()
            .chain(docs[..4].iter().map(String::as_str))
            .collect::<Vec<_>>(),
    );
    assert!(prefix.status.success() && !prefix.stdout.is_empty());
    for (name, args) in workloads(&docs) {
        for delivery in [&[][..], &["--mmap"][..]] {
            let run = |threads: &str| {
                let out = batch.smpx(&[&args[..], delivery, &["--threads", threads]].concat());
                assert_eq!(out.status.code(), Some(1), "{name} {delivery:?} t={threads}");
                let err = stderr_of(&out);
                let line = err.lines().find(|l| l.contains("cannot open")).map(str::to_string);
                (out.stdout, line.unwrap_or_else(|| panic!("no `cannot open` line in: {err}")))
            };
            let (seq, par) = (run("1"), run("2"));
            assert!(seq.1.starts_with(&format!("smpx: cannot open {missing}: ")), "{}", seq.1);
            assert_eq!(seq.1, par.1, "{name} {delivery:?}: the message");
            assert!(seq.0 == par.0, "{name} {delivery:?}: the prefix written before the failure");
            if name == "single" {
                assert!(seq.0 == prefix.stdout, "{delivery:?}: exactly the four inputs before it");
            }
        }
    }
}

/// `doc` cut 40 bytes into the `<description>` of its last item: the
/// single and the multi-query workload below both copy that subtree, so a
/// run over it fails at the cut with part of its projection made.
fn cut_in_copied_description(doc: &[u8]) -> Vec<u8> {
    let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).position(|w| w == needle);
    let item = doc.windows(6).rposition(|w| w == b"<item ").expect("an item");
    let desc = item + find(&doc[item..], b"<description>").expect("an item description");
    doc[..desc + 40].to_vec()
}

/// A batch of XMark documents of the given sizes; the one at `cut`, if
/// any, ends inside a copied subtree.
fn sized_batch(tag: &str, sizes: &[usize], cut: Option<usize>) -> Batch {
    let mut batch = Batch::new(tag, 0, 0);
    batch.docs = sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let path = batch.dir.join(format!("s{i:02}.xml"));
            let mut doc = xmark::generate(GenOptions::sized(bytes).with_seed(i as u64 + 1));
            if cut == Some(i) {
                doc = cut_in_copied_description(&doc);
            }
            std::fs::write(&path, doc).expect("write doc");
            path.to_string_lossy().into_owned()
        })
        .collect();
    batch
}

/// Stdout, stderr and exit code of every workload × delivery agree
/// between `--threads 1` and `--threads 2`; returns the exit codes seen.
fn assert_widths_agree_exactly(batch: &Batch) -> Vec<Option<i32>> {
    let files = || batch.docs.iter().map(String::as_str);
    let single: Vec<&str> = ["--paths", "/*,/site//item/name#,/site//item/description#"]
        .into_iter()
        .chain(files())
        .collect();
    let multi: Vec<&str> = ["--query", "//item/description", "--query", "//person/name"]
        .into_iter()
        .chain(files())
        .collect();
    let mut codes = Vec::new();
    for (name, args) in [("single", single), ("multi", multi)] {
        for delivery in [&[][..], &["--mmap"][..]] {
            let run = |threads: &str| {
                batch.smpx(&[&args[..], delivery, &["--threads", threads]].concat())
            };
            let (seq, par) = (run("1"), run("2"));
            assert!(!seq.stdout.is_empty(), "{name} {delivery:?}: empty projection");
            assert!(
                seq.stdout == par.stdout,
                "{name} {delivery:?}: --threads 2 wrote {} bytes, --threads 1 {}",
                par.stdout.len(),
                seq.stdout.len()
            );
            assert_eq!(stderr_of(&seq), stderr_of(&par), "{name} {delivery:?}: messages");
            assert_eq!(seq.status.code(), par.status.code(), "{name} {delivery:?}: exit code");
            codes.push(seq.status.code());
        }
    }
    codes
}

#[test]
fn a_document_failing_mid_batch_writes_the_same_bytes_at_both_widths() {
    // The failing input's partial projection is written at every width,
    // after the projections of the inputs before it.
    let batch = sized_batch("cut-small", &[96 << 10, 96 << 10, 96 << 10, 96 << 10], Some(1));
    assert!(assert_widths_agree_exactly(&batch).iter().all(|&c| c == Some(1)));
    let err = stderr_of(&batch.smpx(&["--paths", "/*,//item/description#", &batch.docs[1]]));
    assert!(err.contains("unexpected end of input while copying a subtree"), "{err}");
}

#[test]
fn a_large_failing_document_that_becomes_the_head_mid_run_writes_the_same_bytes() {
    // The small input before it is written while the large one runs, so
    // the large one's relay switches from its buffer to the sink half way
    // through the document — and then the document fails.
    let batch = sized_batch("cut-head", &[8 << 10, 3 << 20, 8 << 10], Some(1));
    assert!(assert_widths_agree_exactly(&batch).iter().all(|&c| c == Some(1)));
}

#[test]
fn the_largest_document_first_or_last_writes_the_same_bytes_at_both_widths() {
    for (tag, sizes) in [
        ("big-first", [2 << 20, 64 << 10, 96 << 10, 80 << 10]),
        ("big-last", [64 << 10, 96 << 10, 80 << 10, 2 << 20]),
    ] {
        let batch = sized_batch(tag, &sizes, None);
        assert!(assert_widths_agree_exactly(&batch).iter().all(|&c| c == Some(0)), "{tag}");
    }
}

#[test]
fn stats_name_the_effective_width() {
    let batch = Batch::new("width", 3, 2 << 10);
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let files: Vec<&str> = batch.docs.iter().map(String::as_str).collect();
    let args = [&["--paths", "/*,//name#", "--stats", "--threads", "64"][..], &files].concat();
    let err = stderr_of(&batch.smpx(&args));
    // min(--threads, inputs, available parallelism); width 1 is the
    // sequential loop and prints no pool line.
    match avail.min(3) {
        1 => assert!(!err.contains("pool worker"), "{err}"),
        w => assert!(err.contains(&format!("batch of 3 inputs over {w} pool workers")), "{err}"),
    }
    // One input is a width-1 run whatever `--threads` says.
    let one =
        stderr_of(&batch.smpx(&["--paths", "/*,//name#", "--stats", "--threads", "2", files[0]]));
    assert!(!one.contains("pool worker") && !one.contains("shard"), "{one}");
    // The set-up line: the DTD parse, then the compile, then the scan
    // kernel this CPU runs (the child detects it as this process does).
    let setup = one.lines().find(|l| l.starts_with("smpx: DTD parsed in "));
    assert!(
        setup.is_some_and(|l| l.contains(" ms, ")
            && l.contains(" states (")
            && l.contains(", compiled in ")
            && l.contains(" relevance steps")),
        "{one}"
    );
    let scan = ScanMode::from_env().name();
    assert!(setup.is_some_and(|l| l.ends_with(&format!("; scan {scan}"))), "{one}");
}
