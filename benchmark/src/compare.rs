//! `compare A B`: is B a regression from A? One row per end-to-end metric
//! and workload, each ratio with its base, judged against the bound the
//! benchmark fixed.

use crate::json::Json;
use crate::spec::{bound, DRIFT_GAUGES, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread of the raw samples exceeds the bound and the two runs'
    /// interquartile ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(
    base: f64,
    new: f64,
    base_samples: &[f64],
    new_samples: &[f64],
    bound: f64,
    higher_is_better: bool,
) -> Verdict {
    let gain = (new - base) / base * if higher_is_better { 1.0 } else { -1.0 };
    let measured = base_samples.len() >= 2 && new_samples.len() >= 2;
    if measured && (spread(base_samples) > bound || spread(new_samples) > bound) {
        // Overlap is judged on the quartiles: with dozens of passes the
        // extremes of two runs always overlap.
        let ((base_q1, base_q3), (new_q1, new_q3)) =
            (quartiles(base_samples), quartiles(new_samples));
        if new_q1 <= base_q3 && base_q1 <= new_q3 {
            return Verdict::Unresolved;
        }
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{}: a --quick result measures too little to compare", path.display()));
    }
    if v.get("mode").and_then(Json::as_str) != Some("end_to_end") {
        return Err(format!(
            "{}: not an untraced result file; end-to-end numbers come from the untraced run",
            path.display()
        ));
    }
    Ok(v)
}

/// The workloads of a result file, in declared order.
fn workloads_of(file: &Json) -> Vec<&'static str> {
    WORKLOADS.iter().copied().filter(|w| file.at(&["workloads", w]).is_some()).collect()
}

/// Two files compare only when they measured the same thing: the same
/// seed, the same seconds, the same workloads, and in each the same
/// commands over inputs of the same size.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds"] {
        let (x, y) = (a.get(key).and_then(Json::as_f64), b.get(key).and_then(Json::as_f64));
        if x.is_none() || x != y {
            return Err(format!("the two files differ in {key} ({x:?} and {y:?})"));
        }
    }
    let (in_a, in_b) = (workloads_of(a), workloads_of(b));
    if in_a.is_empty() || in_a != in_b {
        return Err(format!(
            "the two files cover different workloads ({} and {}): a workload that did not run \
             cannot be cleared",
            in_a.join(","),
            in_b.join(",")
        ));
    }
    for w in in_a {
        let commands = |file: &Json| -> Vec<(String, f64)> {
            file.at(&["workloads", w, "commands"])
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|c| {
                    Some((c.get("name")?.as_str()?.to_string(), c.get("input_bytes")?.as_f64()?))
                })
                .collect()
        };
        if commands(a) != commands(b) {
            return Err(format!("{w}: the two files ran different commands or input sizes"));
        }
    }
    Ok(())
}

/// What `compare` found.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    /// Rows judged `worse`, and workloads whose `fail_share` rose.
    pub worse: usize,
    /// `unresolved` rows whose median worsened by more than the bound: the
    /// data cannot call them a regression, and cannot clear them either.
    pub unresolved_beyond: usize,
    pub unresolved_within: usize,
}

impl Outcome {
    /// 0 when B is cleared, 1 on any `worse` or any rise in `fail_share`,
    /// 3 when nothing is `worse` but a median moved beyond its bound
    /// inside noise too wide to judge it.
    pub fn exit_code(&self) -> i32 {
        if self.worse > 0 {
            1
        } else if self.unresolved_beyond > 0 {
            3
        } else {
            0
        }
    }
}

/// The comparison as text, and what it found. Fails when the two files
/// did not measure the same thing.
pub fn compare(a: &Json, b: &Json) -> Result<(String, Outcome), String> {
    comparable(a, b)?;
    let mut out = String::new();
    let mut found = Outcome::default();
    let value = |file: &Json, w: &str, section: &str, metric: &str| {
        file.at(&["workloads", w, section, metric, "value"]).and_then(Json::as_f64)
    };
    // The gauges are read once per pass, so each workload's pair tells how
    // the host ran during that workload's minutes.
    let mut moved: Vec<&str> = Vec::new();
    for w in workloads_of(a) {
        for gauge in DRIFT_GAUGES {
            if let (Some(base), Some(new)) =
                (value(a, w, "layers", gauge), value(b, w, "layers", gauge))
            {
                let ratio = new / base;
                let _ = writeln!(
                    out,
                    "drift {gauge:<21} {w:<17} {base:>12.1} {new:>12.1} {ratio:>7.3}"
                );
                if (ratio - 1.0).abs() > 0.05 && !moved.contains(&w) {
                    moved.push(w);
                }
            }
        }
    }
    if !moved.is_empty() {
        let _ = writeln!(
            out,
            "warning: the gauges run code no change touches and moved more than 5 % on {}: \
             the host moved there, read those rows with that in mind",
            moved.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<17} {:>12} {:>12} {:>7} {:>6}  verdict",
        "metric", "workload", "base", "new", "ratio", "bound"
    );
    for w in workloads_of(a) {
        for m in &END_TO_END {
            let (Some(base), Some(new)) =
                (value(a, w, "end_to_end", m.name), value(b, w, "end_to_end", m.name))
            else {
                return Err(format!("{w}: a file lacks the end-to-end metric {}", m.name));
            };
            let samples = |file: &Json| {
                file.at(&["workloads", w, "samples", m.name]).map(Json::f64s).unwrap_or_default()
            };
            let limit = bound(m.name, w);
            let v = verdict(base, new, &samples(a), &samples(b), limit, m.higher_is_better);
            let loss = (base - new) / base * if m.higher_is_better { 1.0 } else { -1.0 };
            let note = match v {
                Verdict::Worse => {
                    found.worse += 1;
                    ""
                }
                Verdict::Unresolved if loss > limit => {
                    found.unresolved_beyond += 1;
                    " (median beyond the bound)"
                }
                Verdict::Unresolved => {
                    found.unresolved_within += 1;
                    ""
                }
                _ => "",
            };
            let _ = writeln!(
                out,
                "{:<14} {:<17} {:>12.4} {:>12.4} {:>7.3} {:>5.0}%  {}{note}",
                m.name,
                w,
                base,
                new,
                new / base,
                limit * 100.0,
                v.as_str()
            );
        }
        let share = |file: &Json| {
            file.at(&["workloads", w, "fail_share"]).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let (base, new) = (share(a), share(b));
        let rose = new > base;
        found.worse += usize::from(rose);
        let _ = writeln!(
            out,
            "{:<14} {:<17} {:>12.4} {:>12.4} {:>7} {:>6}  {}",
            "fail_share",
            w,
            base,
            new,
            "-",
            "any",
            if rose { "worse" } else { "same" }
        );
    }
    let _ = writeln!(
        out,
        "{} worse, {} unresolved with the median beyond its bound, {} unresolved within it",
        found.worse, found.unresolved_beyond, found.unresolved_within
    );
    Ok((out, found))
}

/// `compare A B`: prints the comparison, returns [`Outcome::exit_code`].
pub fn main(a: &Path, b: &Path) -> Result<i32, String> {
    let (text, found) = compare(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(found.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let tight = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(verdict(100.0, 103.0, &tight, &tight, 0.05, true), Verdict::Same);
        assert_eq!(verdict(100.0, 110.0, &tight, &tight, 0.05, true), Verdict::Better);
        assert_eq!(verdict(100.0, 90.0, &tight, &tight, 0.05, true), Verdict::Worse);
        assert_eq!(verdict(100.0, 110.0, &tight, &tight, 0.05, false), Verdict::Worse);
        assert_eq!(verdict(100.0, 90.0, &[], &[], 0.05, false), Verdict::Better);
    }

    #[test]
    fn a_wide_spread_is_unresolved_only_while_the_quartiles_overlap() {
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        let overlapping = [70.0, 90.0, 105.0, 85.0, 95.0];
        assert_eq!(verdict(100.0, 90.0, &wide, &overlapping, 0.05, true), Verdict::Unresolved);
        // A 30 % shift with one straggler on each side: the extremes still
        // overlap, the quartiles do not, and the shift is called.
        let base = [60.0, 95.0, 100.0, 105.0, 110.0, 90.0, 100.0];
        let shifted = [115.0, 66.0, 70.0, 74.0, 77.0, 63.0, 70.0];
        assert_eq!(verdict(100.0, 70.0, &base, &shifted, 0.05, true), Verdict::Worse);
        assert_eq!(verdict(100.0, 70.0, &base, &shifted, 0.05, false), Verdict::Better);
    }

    /// A result file of one workload with one command.
    fn file(cli: &[f64], kmp: f64, fail_share: f64) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
        let median = crate::stats::median(cli);
        let end_to_end = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    (m.name.to_string(), metric(if m.name == "cli_mibs" { median } else { 1.0 }))
                })
                .collect(),
        );
        let layers = Json::Obj(DRIFT_GAUGES.iter().map(|g| (g.to_string(), metric(kmp))).collect());
        let command = Json::obj(vec![("name", Json::str("XM5")), ("input_bytes", Json::Num(64.0))]);
        let w = Json::obj(vec![
            ("end_to_end", end_to_end),
            ("layers", layers),
            ("fail_share", Json::Num(fail_share)),
            ("samples", Json::obj(vec![("cli_mibs", Json::nums(cli))])),
            ("commands", Json::Arr(vec![command])),
        ]);
        Json::obj(vec![
            ("seed", Json::Num(7.0)),
            ("seconds", Json::Num(20.0)),
            ("workloads", Json::obj(vec![("xmark-mmap", w)])),
        ])
    }

    fn around(v: f64) -> [f64; 3] {
        [v, v * 1.01, v * 0.99]
    }

    #[test]
    fn a_slower_cli_or_a_new_failure_regresses_and_drift_is_flagged() {
        let base = file(&around(1000.0), 500.0, 0.0);
        let (text, found) = compare(&base, &file(&around(1001.0), 501.0, 0.0)).expect("comparable");
        assert_eq!((found.exit_code(), found), (0, Outcome::default()), "{text}");
        assert!(text.contains("cli_mibs") && text.contains("same") && !text.contains("warning"));
        let (text, found) = compare(&base, &file(&around(800.0), 440.0, 0.0)).expect("comparable");
        assert_eq!((found.worse, found.exit_code()), (1, 1), "{text}");
        assert!(text.contains("worse") && text.contains("warning"), "{text}");
        let (text, found) = compare(&base, &file(&around(1000.0), 500.0, 0.1)).expect("comparable");
        assert_eq!(found.exit_code(), 1);
        assert!(text.contains("fail_share"), "{text}");
    }

    #[test]
    fn an_unresolved_row_beyond_its_bound_is_counted_and_does_not_exit_clean() {
        // Both runs are far wider than 6 % and their quartiles overlap.
        let base = file(&[700.0, 1000.0, 1300.0, 900.0, 1100.0], 500.0, 0.0);
        let lower = file(&[600.0, 850.0, 1150.0, 800.0, 950.0], 500.0, 0.0);
        let (text, found) = compare(&base, &lower).expect("comparable");
        assert_eq!((found.worse, found.unresolved_beyond, found.unresolved_within), (0, 1, 0));
        assert_eq!(found.exit_code(), 3);
        assert!(text.contains("unresolved (median beyond the bound)"), "{text}");
        // The same noise around the same median is unresolved within it.
        let (_, found) = compare(&base, &base).expect("comparable");
        assert_eq!((found.unresolved_within, found.exit_code()), (1, 0));
    }

    #[test]
    fn files_that_measured_different_things_are_refused() {
        let base = file(&around(1000.0), 500.0, 0.0);
        let with = |key: &str, v: Json| {
            let mut fields = base.as_obj().expect("object").to_vec();
            fields.retain(|(k, _)| k != key);
            fields.push((key.to_string(), v));
            Json::Obj(fields)
        };
        assert!(compare(&base, &with("seed", Json::Num(8.0))).unwrap_err().contains("seed"));
        assert!(compare(&base, &with("seconds", Json::Num(6.0))).unwrap_err().contains("seconds"));
        // A workload that ran in A and is missing from B is no clean B.
        let none = with("workloads", Json::Obj(vec![]));
        assert!(compare(&base, &none).unwrap_err().contains("different workloads"));
        let other = with(
            "workloads",
            Json::obj(vec![("xmark-copy", base.at(&["workloads", "xmark-mmap"]).unwrap().clone())]),
        );
        assert!(compare(&base, &other).unwrap_err().contains("different workloads"));
        // The same workload over a document of another size.
        let mut bigger = file(&around(1000.0), 500.0, 0.0).compact();
        bigger = bigger.replace("\"input_bytes\":64", "\"input_bytes\":128");
        let bigger = Json::parse(&bigger).expect("still JSON");
        assert!(compare(&base, &bigger).unwrap_err().contains("input sizes"));
    }

    #[test]
    fn quick_and_traced_files_are_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("smpx-bench-compare-{}.json", std::process::id()));
        let write = |quick: bool, mode: &str| {
            let v = Json::obj(vec![("quick", Json::Bool(quick)), ("mode", Json::str(mode))]);
            std::fs::write(&path, v.pretty()).expect("result file");
        };
        write(true, "end_to_end");
        assert!(load(&path).unwrap_err().contains("--quick"));
        write(false, "traced");
        assert!(load(&path).unwrap_err().contains("untraced"));
        write(false, "end_to_end");
        assert!(load(&path).is_ok());
        std::fs::remove_file(&path).expect("clean up");
    }
}
