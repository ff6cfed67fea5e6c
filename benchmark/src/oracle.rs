//! What every output must equal. The oracle is
//! `smpx_baselines::TokenProjector`, independent of the SMP runtime; a
//! multi-query verdict is checked against one single-query run per query
//! (`match_events > 0`). The oracle runs at 25–50 MiB/s, so its answers
//! are kept as length + hash: pinned in `expected.json` for the default
//! seed, cached under `out/cache/` for any other.

use crate::corpus::{hash64, Corpus, Pin};
use crate::json::Json;
use crate::workloads::{Command, Input, LibRoute, Workload};
use smpx_baselines::TokenProjector;
use smpx_core::runtime::source::SliceSource;
use smpx_core::Prefilter;
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedCmd {
    pub out: Pin,
    /// `K/N queries [q0 q3 …]`, one line per input document, for commands
    /// that answer a verdict.
    pub verdict: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// File count, total length and a hash over every file's pin.
    pub corpus: (u64, Pin),
    pub commands: Vec<(String, ExpectedCmd)>,
}

pub fn corpus_pin(corpus: &Corpus) -> (u64, Pin) {
    let mut buf = Vec::new();
    let mut files = 0;
    for d in corpus.files() {
        buf.extend_from_slice(&d.pin.len.to_le_bytes());
        buf.extend_from_slice(&d.pin.hash.to_le_bytes());
        files += 1;
    }
    (files, Pin { len: corpus.total_bytes(), hash: hash64(&buf) })
}

/// The verdict line the CLI prints and the library verdict renders to.
pub fn verdict_line(matched: &[u32], n_queries: u32) -> String {
    let ids: Vec<String> = matched.iter().map(|q| format!("q{q}")).collect();
    format!("{}/{} queries [{}]", ids.len(), n_queries, ids.join(" "))
}

fn project(paths: &PathSet, corpus: &Corpus, input: Input) -> Result<Pin, String> {
    let projector = TokenProjector::new(paths);
    let mut out = Vec::new();
    for doc in corpus.inputs(input) {
        out.extend(
            projector.project(&doc.bytes).map_err(|e| format!("oracle on {}: {e}", doc.rel))?,
        );
    }
    Ok(Pin::of(&out))
}

/// Does a single-query run of `paths` over `doc` report a match event?
fn single_query_matches(dtd: &Dtd, paths: &PathSet, doc: &[u8]) -> Result<bool, String> {
    let mut pf = Prefilter::compile(dtd, paths).map_err(|e| e.to_string())?;
    let stats =
        pf.filter_source(SliceSource::new(doc), std::io::sink()).map_err(|e| e.to_string())?;
    Ok(stats.match_events > 0)
}

/// Run the oracle over every command of `w`. Commands that share a path
/// set and an input share one projection.
pub fn compute(w: &Workload, corpus: &Corpus) -> Result<Expected, String> {
    let dtd = Dtd::parse(corpus.dtd_text.as_bytes()).map_err(|e| e.to_string())?;
    let unions: Vec<(PathSet, Input)> = w
        .commands
        .iter()
        .map(|c| Ok((c.query.union()?, c.input)))
        .collect::<Result<_, String>>()?;
    let mut distinct: Vec<&(PathSet, Input)> = Vec::new();
    for u in &unions {
        if !distinct.contains(&u) {
            distinct.push(u);
        }
    }
    // Two threads were tried here: the projector allocates per tag and two
    // of them side by side each ran at half speed.
    let pins: Vec<Result<Pin, String>> =
        distinct.iter().map(|(paths, input)| project(paths, corpus, *input)).collect();

    // One single-query run per distinct query text and document.
    let verdict_cmds: Vec<&Command> =
        w.commands.iter().filter(|c| c.lib == LibRoute::Multi).collect();
    let mut queries: Vec<(PathSet, Input)> = Vec::new();
    for c in &verdict_cmds {
        for q in c.query.path_sets()? {
            if !queries.contains(&(q.clone(), c.input)) {
                queries.push((q, c.input));
            }
        }
    }
    let matches: Vec<Vec<bool>> = queries
        .iter()
        .map(|(q, input)| {
            corpus.inputs(*input).iter().map(|d| single_query_matches(&dtd, q, &d.bytes)).collect()
        })
        .collect::<Result<_, String>>()?;

    let mut commands = Vec::new();
    for (c, u) in w.commands.iter().zip(&unions) {
        let at = distinct.iter().position(|d| *d == u).expect("every union is listed");
        let out = pins[at].clone()?;
        let verdict = if c.lib == LibRoute::Multi {
            let sets = c.query.path_sets()?;
            let lines: Vec<String> = (0..corpus.inputs(c.input).len())
                .map(|doc| {
                    let matched: Vec<u32> = (0..sets.len() as u32)
                        .filter(|&i| {
                            let q = queries
                                .iter()
                                .position(|(q, input)| *q == sets[i as usize] && *input == c.input)
                                .expect("every query is listed");
                            matches[q][doc]
                        })
                        .collect();
                    verdict_line(&matched, sets.len() as u32)
                })
                .collect();
            Some(lines.join("\n"))
        } else {
            None
        };
        commands.push((c.name.clone(), ExpectedCmd { out, verdict }));
    }
    Ok(Expected { corpus: corpus_pin(corpus), commands })
}

fn pin_json(p: &Pin) -> Vec<(&'static str, Json)> {
    // The hash is hexadecimal text: a JSON number holds 53 bits.
    vec![("len", Json::Num(p.len as f64)), ("hash", Json::Str(format!("{:016x}", p.hash)))]
}

fn pin_from(v: &Json) -> Option<Pin> {
    Some(Pin {
        len: v.get("len")?.as_f64()? as u64,
        hash: u64::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?,
    })
}

impl Expected {
    pub fn to_json(&self) -> Json {
        let mut corpus = vec![("files", Json::Num(self.corpus.0 as f64))];
        corpus.extend(pin_json(&self.corpus.1));
        let commands = self
            .commands
            .iter()
            .map(|(name, e)| {
                let mut fields = pin_json(&e.out);
                fields.push(("verdict", e.verdict.clone().map_or(Json::Null, Json::Str)));
                (name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![("corpus", Json::obj(corpus)), ("commands", Json::Obj(commands))])
    }

    pub fn from_json(v: &Json) -> Option<Expected> {
        let corpus = v.get("corpus")?;
        let commands = v
            .get("commands")?
            .as_obj()?
            .iter()
            .map(|(name, e)| {
                let verdict = e.get("verdict").and_then(Json::as_str).map(str::to_string);
                Some((name.clone(), ExpectedCmd { out: pin_from(e)?, verdict }))
            })
            .collect::<Option<_>>()?;
        Some(Expected {
            corpus: (corpus.get("files")?.as_f64()? as u64, pin_from(corpus)?),
            commands,
        })
    }

    pub fn command(&self, name: &str) -> Option<&ExpectedCmd> {
        self.commands.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }
}

pub fn mode_key(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Where the expectations of a run came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    Pinned,
    Cached,
    Computed,
}

/// The expectations for `w` under `seed`: the pins when `pins_file` was
/// written for this seed, else the cache, else a fresh oracle run that
/// fills the cache. Pinned inputs that no longer hash the same abort the
/// run: the generators changed and the pins must be rewritten knowingly.
pub fn resolve(
    w: &Workload,
    corpus: &Corpus,
    seed: u64,
    quick: bool,
    pins_file: &Path,
    cache_dir: &Path,
) -> Result<(Expected, Source), String> {
    if let Ok(text) = std::fs::read_to_string(pins_file) {
        let pins = Json::parse(&text).map_err(|e| format!("{}: {e}", pins_file.display()))?;
        if pins.get("seed").and_then(Json::as_f64) == Some(seed as f64) {
            if let Some(entry) = pins.at(&[mode_key(quick), w.name]) {
                let expected = Expected::from_json(entry).ok_or_else(|| {
                    format!("{}: malformed entry {}", pins_file.display(), w.name)
                })?;
                if expected.corpus != corpus_pin(corpus) {
                    return Err(format!(
                        "inputs changed: the {} corpus for seed {seed} no longer matches {}; \
                         if the generators changed on purpose, run `benchmark/run.sh oracle --write`",
                        w.name,
                        pins_file.display()
                    ));
                }
                return Ok((expected, Source::Pinned));
            }
        }
    }
    let cache = cache_dir.join(format!("{}-{seed}-{}.json", w.name, mode_key(quick)));
    if let Some(expected) = std::fs::read_to_string(&cache)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|v| Expected::from_json(&v))
        .filter(|e| e.corpus == corpus_pin(corpus) && e.commands.len() == w.commands.len())
    {
        return Ok((expected, Source::Cached));
    }
    let expected = compute(w, corpus)?;
    std::fs::create_dir_all(cache_dir)
        .and_then(|()| std::fs::write(&cache, expected.to_json().pretty()))
        .map_err(|e| format!("cannot write {}: {e}", cache.display()))?;
    Ok((expected, Source::Computed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, Sizes};

    fn tiny() -> Sizes {
        Sizes {
            doc_bytes: 64 << 10,
            multiquery_doc_bytes: 64 << 10,
            small_docs: 4,
            small_doc_bytes: 8 << 10,
            batch_docs: 2,
            batch_doc_bytes: 16 << 10,
            shard_doc_bytes: 64 << 10,
        }
    }

    #[test]
    fn verdict_line_matches_the_cli_wording() {
        assert_eq!(verdict_line(&[0, 3], 10), "2/10 queries [q0 q3]");
        assert_eq!(verdict_line(&[], 1), "0/1 queries []");
    }

    #[test]
    fn expectations_round_trip_and_resolve_through_cache_and_pins() {
        let dir = std::env::temp_dir().join(format!("smpx-bench-oracle-{}", std::process::id()));
        let w = workload("xmark-multiquery", tiny()).expect("workload");
        let corpus = Corpus::generate(&w.corpus, 5, &dir.join("work")).expect("corpus");
        let expected = compute(&w, &corpus).expect("oracle");
        assert_eq!(expected.commands.len(), 3);
        let n100 = expected.command("n100").expect("n100");
        assert!(n100.verdict.as_deref().is_some_and(|v| v.contains("/100 queries [")));
        assert_eq!(Expected::from_json(&expected.to_json()), Some(expected.clone()));

        let pins = dir.join("expected.json");
        let cache = dir.join("cache");
        let first = resolve(&w, &corpus, 5, true, &pins, &cache).expect("computed");
        assert_eq!(first, (expected.clone(), Source::Computed));
        let second = resolve(&w, &corpus, 5, true, &pins, &cache).expect("cached");
        assert_eq!(second, (expected.clone(), Source::Cached));

        let file = Json::obj(vec![
            ("seed", Json::Num(5.0)),
            ("quick", Json::obj(vec![(w.name, expected.to_json())])),
        ]);
        std::fs::write(&pins, file.pretty()).expect("pins");
        let third = resolve(&w, &corpus, 5, true, &pins, &cache).expect("pinned");
        assert_eq!(third, (expected, Source::Pinned));
        let other = Corpus::generate(&w.corpus, 6, &dir.join("work")).expect("corpus");
        let err = resolve(&w, &other, 5, true, &pins, &cache).unwrap_err();
        assert!(err.starts_with("inputs changed"), "{err}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn shared_path_sets_share_one_projection() {
        let dir = std::env::temp_dir().join(format!("smpx-bench-oracle2-{}", std::process::id()));
        let w = workload("small-docs", tiny()).expect("workload");
        let corpus = Corpus::generate(&w.corpus, 5, &dir).expect("corpus");
        let e = compute(&w, &corpus).expect("oracle");
        assert_eq!(e.command("XM13").map(|c| c.out), e.command("XM13-mmap").map(|c| c.out));
        assert_ne!(e.command("XM13").map(|c| c.out), e.command("XM14").map(|c| c.out));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
