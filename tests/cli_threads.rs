//! `smpx --threads 2` ≡ `smpx --threads 1`, driving the real binary: the
//! pooled batch writes its projections in argument order through recycled
//! buffers, so stdout is byte-identical to the sequential loop's on a
//! 4096-file and an 8-file batch × `--mmap`/reader × single-query /
//! multi-query / lifecycle, and a batch with a missing file in the middle
//! leaves the same prefix and the same message at both widths.

use smpx_datagen::{xmark, GenOptions};
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
}
