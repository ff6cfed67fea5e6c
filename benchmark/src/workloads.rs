//! The seven workloads: which documents are generated and which commands
//! run over them. The commands are fixed; the seed makes the documents.

use crate::child::Cpus;
use smpx_datagen::{medline, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_paths::extract::extract_from_text;
use smpx_paths::PathSet;

/// Corpus sizes. The oracle reads 25 MiB/s, and a tenth of that under a
/// hundred-query union, so the sizes are what lets a run with its oracle
/// fit the driver's time cap. `quick` keeps every code path (the single
/// document of `xmark-threads` stays above the CLI's 8 MiB auto-shard
/// threshold) and shrinks everything else so a whole run takes seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub doc_bytes: usize,
    pub multiquery_doc_bytes: usize,
    pub small_docs: usize,
    pub small_doc_bytes: usize,
    pub batch_docs: usize,
    pub batch_doc_bytes: usize,
    pub shard_doc_bytes: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                doc_bytes: 4 << 20,
                multiquery_doc_bytes: 1 << 20,
                small_docs: 256,
                small_doc_bytes: 8 << 10,
                batch_docs: 8,
                batch_doc_bytes: 512 << 10,
                shard_doc_bytes: 9 << 20,
            }
        } else {
            Sizes {
                doc_bytes: 32 << 20,
                multiquery_doc_bytes: 8 << 20,
                small_docs: 4096,
                small_doc_bytes: 8 << 10,
                batch_docs: 8,
                batch_doc_bytes: 4 << 20,
                shard_doc_bytes: 32 << 20,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    Xmark,
    Medline,
}

impl Dataset {
    pub fn dtd(self) -> &'static str {
        match self {
            Dataset::Xmark => xmark::XMARK_DTD,
            Dataset::Medline => medline::MEDLINE_DTD,
        }
    }

    pub fn generate(self, bytes: usize, seed: u64) -> Vec<u8> {
        let opts = GenOptions::sized(bytes).with_seed(seed);
        match self {
            Dataset::Xmark => xmark::generate(opts),
            Dataset::Medline => medline::generate(opts),
        }
    }
}

/// Which generated files a workload needs: one big document, a batch of
/// `count` documents of `bytes` each, or both.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSpec {
    pub dataset: Dataset,
    pub doc_bytes: Option<usize>,
    pub batch: Option<(usize, usize)>,
}

/// How a command states its query on the `smpx` command line.
#[derive(Debug, Clone)]
pub enum Query {
    /// `--paths a,b,c`: a curated projection path set.
    Paths(Vec<String>),
    /// `--query X`, once per entry: XPath text. More than one entry is a
    /// multi-query run with a verdict per query.
    Xpath(Vec<String>),
}

impl Query {
    /// One path set per query, as the program extracts them.
    pub fn path_sets(&self) -> Result<Vec<PathSet>, String> {
        match self {
            Query::Paths(p) => Ok(vec![PathSet::parse(p).map_err(|e| e.to_string())?]),
            Query::Xpath(qs) => {
                qs.iter().map(|q| extract_from_text(q).map_err(|e| e.to_string())).collect()
            }
        }
    }

    /// The union the projection is computed for.
    pub fn union(&self) -> Result<PathSet, String> {
        Ok(self.path_sets()?.iter().fold(PathSet::new(vec![]), |u, q| u.union(q)))
    }

    pub fn cli_args(&self) -> Vec<String> {
        match self {
            Query::Paths(p) => vec!["--paths".into(), p.join(",")],
            Query::Xpath(qs) => qs.iter().flat_map(|q| ["--query".into(), q.clone()]).collect(),
        }
    }

    pub fn is_multi(&self) -> bool {
        matches!(self, Query::Xpath(qs) if qs.len() > 1)
    }
}

/// Which of the corpus files a command reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    Doc,
    Batch,
}

/// The library entry point `lib_mibs` times for a command. Fixed per
/// workload: the harness never mirrors the CLI's routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LibRoute {
    /// `filter_source(MmapSource)`.
    Mmap,
    /// `filter_source(ReaderSource)` at `DEFAULT_CHUNK`.
    Reader,
    /// `run_batch` over `ReaderSource`s / `MmapSource`s.
    BatchReader,
    BatchMmap,
    /// `QueryRegistry::compile` then `MultiPrefilter::run_multi(MmapSource)`.
    Multi,
    /// `run_batch_parallel(MmapSource.., 2)`.
    PoolBatch,
    /// `run_sharded(MmapSource, 2, 0)`.
    Sharded,
}

impl LibRoute {
    pub fn threads(self) -> usize {
        match self {
            LibRoute::PoolBatch | LibRoute::Sharded => 2,
            _ => 1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Command {
    pub name: String,
    pub query: Query,
    pub input: Input,
    /// Delivery and threading flags, verbatim.
    pub flags: Vec<String>,
    pub lib: LibRoute,
    /// The CPUs the `smpx` child may run on. One for the commands that take
    /// the prefetching route, whose two threads the kernel otherwise places
    /// on one CPU or on two as it pleases, 1.7x apart (see `child`); all for
    /// every other command.
    pub cpus: Cpus,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: CorpusSpec,
    pub commands: Vec<Command>,
}

fn strings(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

fn cmd(name: &str, query: Query, input: Input, flags: &[&str], lib: LibRoute) -> Command {
    Command { name: name.into(), query, input, flags: strings(flags), lib, cpus: Cpus::All }
}

// The Table I path sets this benchmark uses, as in `crates/bench/src/queries.rs`.
const XM5: &[&str] = &["/*", "/site/closed_auctions/closed_auction/price#"];
const XM7: &[&str] = &["/*", "//description", "//annotation", "//emailaddress"];
const XM13: &[&str] =
    &["/*", "/site/regions/australia/item/name#", "/site/regions/australia/item/description#"];
const XM14: &[&str] = &["/*", "/site//item/name#", "/site//item/description#"];

/// The Table II queries, verbatim from `crates/bench/src/queries.rs`.
const MEDLINE: [(&str, &str); 5] = [
    ("M1", "/MedlineCitationSet//CollectionTitle"),
    ("M2", r#"/MedlineCitationSet//DataBank[DataBankName/text()="PDB"]/AccessionNumberList"#),
    (
        "M3",
        r#"/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject[LastName/text()="Hippocrates" or DatesAssociatedWithName="Oct2006"]/TitleAssociatedWithName"#,
    ),
    ("M4", r#"/MedlineCitationSet//CopyrightInformation[contains(text(),"NASA")]"#),
    (
        "M5",
        r#"/MedlineCitationSet/MedlineCitation[contains(MedlineJournalInfo//text(),"Sterilization")]/DateCompleted"#,
    ),
];

fn paths(p: &[&str]) -> Query {
    Query::Paths(strings(p))
}

/// SplitMix64: derives the seeds of batch documents from the run's seed,
/// and makes the fixed draw of standing queries.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every root-to-element path the DTD admits, as XPath text, in a stable
/// order, the root's own first (207 below the root for the XMark DTD).
pub fn root_to_element_paths(dtd: &Dtd) -> Vec<String> {
    fn walk(dtd: &Dtd, path: &mut Vec<String>, out: &mut Vec<String>) {
        out.push(format!("/{}", path.join("/")));
        let here = path.last().expect("path starts at the root").clone();
        for child in dtd.effective_child_names(&here) {
            // A recursive DTD has no finite path set; stop at the repeat.
            if !path.iter().any(|p| p == child) {
                path.push(child.to_string());
                walk(dtd, path, out);
                path.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(dtd, &mut vec![dtd.root().to_string()], &mut out);
    out
}

/// `n` distinct standing queries drawn from the DTD's root-to-element
/// paths; the first `k` are the same for every `n >= k`, so the N = 1, 10,
/// 100 commands nest. The draw is fixed, like XM5 or M3 are fixed: the
/// seed varies the documents only. Drawing per seed put a subtree copy of
/// 45 % of the input into half the runs and made the workload bimodal.
pub fn standing_queries(dataset: Dataset, n: usize) -> Vec<String> {
    let dtd = Dtd::parse(dataset.dtd().as_bytes()).expect("bundled DTD parses");
    let mut all = root_to_element_paths(&dtd);
    // The bare root path selects the whole document; it is no query.
    all.remove(0);
    let mut state = 0x006d_756c_7469_7172;
    for i in 0..n.min(all.len()) {
        let j = i + (splitmix(&mut state) % (all.len() - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

pub fn workload(name: &str, sizes: Sizes) -> Option<Workload> {
    let xmark_doc =
        CorpusSpec { dataset: Dataset::Xmark, doc_bytes: Some(sizes.doc_bytes), batch: None };
    let four = |flags: &[&str], lib: LibRoute| {
        vec![
            cmd("XM5", paths(XM5), Input::Doc, flags, lib),
            cmd("XM13", paths(XM13), Input::Doc, flags, lib),
            cmd("XM7", paths(XM7), Input::Doc, flags, lib),
            cmd("XM14", paths(XM14), Input::Doc, flags, lib),
        ]
    };
    let w = match name {
        "xmark-mmap" => Workload {
            name: "xmark-mmap",
            corpus: xmark_doc,
            commands: four(&["--mmap"], LibRoute::Mmap),
        },
        "medline-mmap" => Workload {
            name: "medline-mmap",
            corpus: CorpusSpec {
                dataset: Dataset::Medline,
                doc_bytes: Some(sizes.doc_bytes),
                batch: None,
            },
            commands: MEDLINE
                .iter()
                .map(|(id, q)| {
                    cmd(id, Query::Xpath(strings(&[q])), Input::Doc, &["--mmap"], LibRoute::Mmap)
                })
                .collect(),
        },
        "xmark-stream" => Workload {
            name: "xmark-stream",
            corpus: xmark_doc,
            commands: four(&[], LibRoute::Reader)
                .into_iter()
                .map(|c| Command { cpus: Cpus::One, ..c })
                .collect(),
        },
        "xmark-copy" => Workload {
            name: "xmark-copy",
            corpus: xmark_doc,
            commands: vec![
                cmd(
                    "items",
                    paths(&["/*", "/site/regions//item#"]),
                    Input::Doc,
                    &["--mmap"],
                    LibRoute::Mmap,
                ),
                cmd(
                    "items-people",
                    paths(&["/*", "/site/regions//item#", "/site/people/person#"]),
                    Input::Doc,
                    &["--mmap"],
                    LibRoute::Mmap,
                ),
            ],
        },
        "small-docs" => Workload {
            name: "small-docs",
            corpus: CorpusSpec {
                dataset: Dataset::Xmark,
                doc_bytes: None,
                batch: Some((sizes.small_docs, sizes.small_doc_bytes)),
            },
            commands: vec![
                cmd("XM13", paths(XM13), Input::Batch, &[], LibRoute::BatchReader),
                cmd("XM14", paths(XM14), Input::Batch, &[], LibRoute::BatchReader),
                cmd("XM13-mmap", paths(XM13), Input::Batch, &["--mmap"], LibRoute::BatchMmap),
            ],
        },
        "xmark-multiquery" => {
            let drawn = standing_queries(Dataset::Xmark, 100);
            Workload {
                name: "xmark-multiquery",
                corpus: CorpusSpec { doc_bytes: Some(sizes.multiquery_doc_bytes), ..xmark_doc },
                commands: [1, 10, 100]
                    .iter()
                    .map(|&n| {
                        cmd(
                            &format!("n{n}"),
                            Query::Xpath(drawn[..n].to_vec()),
                            Input::Doc,
                            &["--mmap"],
                            LibRoute::Multi,
                        )
                    })
                    .collect(),
            }
        }
        "xmark-threads" => {
            let flags = ["--mmap", "--threads", "2"];
            Workload {
                name: "xmark-threads",
                corpus: CorpusSpec {
                    dataset: Dataset::Xmark,
                    doc_bytes: Some(sizes.shard_doc_bytes),
                    batch: Some((sizes.batch_docs, sizes.batch_doc_bytes)),
                },
                commands: vec![
                    cmd("batch-XM13", paths(XM13), Input::Batch, &flags, LibRoute::PoolBatch),
                    cmd("batch-XM14", paths(XM14), Input::Batch, &flags, LibRoute::PoolBatch),
                    cmd("shard-XM13", paths(XM13), Input::Doc, &flags, LibRoute::Sharded),
                    cmd("shard-XM14", paths(XM14), Input::Doc, &flags, LibRoute::Sharded),
                ],
            }
        }
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_declared_workload_is_defined_and_its_queries_parse() {
        for name in WORKLOADS {
            let w = workload(name, Sizes::new(true)).expect(name);
            assert_eq!(w.name, name);
            assert!(!w.commands.is_empty());
            for c in &w.commands {
                let sets = c.query.path_sets().unwrap_or_else(|e| panic!("{name}/{}: {e}", c.name));
                assert!(sets.iter().all(|s| !s.is_empty()), "{name}/{}", c.name);
                let input_exists = match c.input {
                    Input::Doc => w.corpus.doc_bytes.is_some(),
                    Input::Batch => w.corpus.batch.is_some(),
                };
                assert!(input_exists, "{name}/{} reads files the corpus lacks", c.name);
            }
        }
        assert!(workload("no-such", Sizes::new(true)).is_none());
    }

    #[test]
    fn xmark_dtd_has_207_paths_below_the_root() {
        let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
        let paths = root_to_element_paths(&dtd);
        assert_eq!(paths[0], "/site");
        assert_eq!(paths.len() - 1, 207);
    }

    #[test]
    fn standing_queries_are_distinct_and_nested() {
        let a = standing_queries(Dataset::Xmark, 100);
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
        assert_eq!(standing_queries(Dataset::Xmark, 10), a[..10]);
        assert!(!a.contains(&"/site".to_string()));
    }
}
