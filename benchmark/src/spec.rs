//! The names this benchmark is made of: workloads, end-to-end metrics and
//! per-layer metrics. Later performance claims cite these names, so they
//! are final; a unit test holds them equal to `BENCHMARK.json`.

/// A declared metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher_is_better: true }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher_is_better: false }
}

/// In the order a run takes them. `xmark-stream` is last: its children are
/// held to one CPU (see `child`), and for minutes after a stretch of pinned
/// tasks the kernel leaves runnable threads stacked on one CPU, which
/// halves `xmark-threads` and touches no single-threaded workload.
pub const WORKLOADS: [&str; 7] = [
    "xmark-mmap",
    "medline-mmap",
    "xmark-copy",
    "small-docs",
    "xmark-multiquery",
    "xmark-threads",
    "xmark-stream",
];

/// What a user of `smpx` sees. `fail_share` rides beside them as the
/// `failed`/`attempted` keys of the result line: it is 0 on a healthy run,
/// and a gated metric may never be 0.
pub const END_TO_END: [Metric; 5] = [
    up("cli_mibs", "MiB/s"),
    up("lib_mibs", "MiB/s"),
    down("cpu_s_per_gib", "s/GiB"),
    down("peak_rss_mib", "MiB"),
    down("setup_s", "s"),
];

/// Share of the base median by which an end-to-end metric may worsen on a
/// workload before `compare` calls it a regression: the ceilings of the
/// issue, which fit a quiet host and long runs. `BENCHMARK.json` carries
/// one bound per metric for single short runs on a noisy host, never
/// tighter than the widest of its row here (see the README, "Bounds").
pub fn bound(metric: &str, workload: &str) -> f64 {
    let threads = workload == "xmark-threads";
    match metric {
        "cli_mibs" if threads => 0.10,
        "cli_mibs" if matches!(workload, "xmark-stream" | "small-docs") => 0.08,
        "cli_mibs" => 0.06,
        "lib_mibs" if threads => 0.10,
        "lib_mibs" => 0.05,
        "cpu_s_per_gib" if threads => 0.10,
        "cpu_s_per_gib" => 0.08,
        "peak_rss_mib" => 0.05,
        "setup_s" => 0.10,
        other => panic!("no bound for undeclared metric {other}"),
    }
}

/// One metric per thing a layer does; layers are this repository's modules.
pub const PER_LAYER: [Metric; 53] = [
    down("dtd.parse_us", "us"),
    down("paths.parse_us", "us"),
    down("compile.tables_ms", "ms"),
    down("compile.matchers_ms", "ms"),
    down("compile.states", "count"),
    down("compile.cw_states", "count"),
    down("compile.bm_states", "count"),
    down("compile.memory_kib", "KiB"),
    up("stringmatch.ceiling_mibs", "MiB/s"),
    up("stringmatch.bm_mibs", "MiB/s"),
    up("stringmatch.cw_mibs", "MiB/s"),
    up("stringmatch.kmp_mibs", "MiB/s"),
    up("runtime.scan_mibs", "MiB/s"),
    down("runtime.emit_ms_per_gib", "ms/GiB"),
    down("runtime.char_comp_pct", "%"),
    down("runtime.scanned_pct", "%"),
    up("runtime.initial_jump_pct", "%"),
    up("runtime.avg_shift", "char"),
    down("runtime.tokens_per_mib", "1/MiB"),
    down("runtime.false_match_share", "share"),
    down("runtime.output_pct", "%"),
    up("source.mmap_mibs", "MiB/s"),
    up("source.reader_mibs", "MiB/s"),
    up("source.prefetch_mibs", "MiB/s"),
    down("source.io_window_kib", "KiB"),
    down("source.io_wait_share", "share"),
    down("source.prefetch_stall_share", "share"),
    up("source.stdin_mibs", "MiB/s"),
    up("parallel.batch_speedup", "x"),
    up("parallel.shard_speedup", "x"),
    up("parallel.shards", "count"),
    up("parallel.shard_hit_share", "share"),
    up("parallel.steals", "count"),
    up("parallel.busy_share", "share"),
    up("parallel.threads_avail", "count"),
    up("registry.n1_mibs", "MiB/s"),
    up("registry.n10_mibs", "MiB/s"),
    up("registry.n100_mibs", "MiB/s"),
    down("registry.n1_overhead_pct", "%"),
    down("registry.compile_ms", "ms"),
    down("registry.states", "count"),
    up("registry.matched_queries", "count"),
    down("lifecycle.add_settle_ms", "ms"),
    down("lifecycle.run_overhead_pct", "%"),
    down("obs.enabled_overhead_pct", "%"),
    down("smpx.startup_ms", "ms"),
    down("smpx.process_overhead_ms", "ms"),
    down("smpx.wall_ms_p50", "ms"),
    down("smpx.wall_ms_hi", "ms"),
    up("smpx.samples", "count"),
    up("baselines.sax_mibs", "MiB/s"),
    down("datagen.gen_s", "s"),
    up("datagen.corpus_mib", "MiB"),
];

/// The settings of a manifest's `[profile.release]` table, sorted, without
/// spaces or comments: the stamp of a result file, and what a test holds
/// equal to the root's.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

/// The two untouched-code gauges: when both move between two result
/// files, the host moved, not the code.
pub const DRIFT_GAUGES: [&str; 2] = ["stringmatch.kmp_mibs", "baselines.sax_mibs"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(section: &Json) -> Vec<(String, String, bool)> {
        section
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").to_string(),
                    m.get("unit").and_then(Json::as_str).expect("unit").to_string(),
                    m.get("better").and_then(Json::as_str).expect("better") == "higher",
                )
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, bool)> {
        metrics.iter().map(|m| (m.name.into(), m.unit.into(), m.higher_is_better)).collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn declared_set_equals_benchmark_json() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(declared(b.get("end_to_end").expect("end_to_end")), ours(&END_TO_END));
        assert_eq!(declared(b.get("per_layer").expect("per_layer")), ours(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_bound_covers_its_row() {
        let b = benchmark_json();
        for m in b.get("end_to_end").and_then(Json::as_arr).expect("end_to_end") {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let declared = m.get("bound").and_then(Json::as_f64).expect("bound");
            let widest = WORKLOADS.iter().map(|w| bound(name, w)).fold(0.0, f64::max);
            assert!(declared >= widest && declared <= 0.25, "{name}: {declared} vs {widest}");
        }
    }

    #[test]
    fn drift_gauges_are_declared_layer_metrics() {
        for g in DRIFT_GAUGES {
            assert!(PER_LAYER.iter().any(|m| m.name == g), "{g}");
        }
    }

    #[test]
    fn release_profile_equals_the_roots() {
        let own = release_profile(include_str!("../Cargo.toml"));
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("root Cargo.toml");
        assert!(!own.is_empty(), "benchmark/Cargo.toml has no [profile.release]");
        assert_eq!(own, release_profile(&root));
    }
}
