//! `perf compare A.jsonl B.jsonl`: the A/A check and the parent-against-
//! change check.  Each file holds `--out` records of several runs; per
//! workload and metric the medians over each file's runs are compared.
//! The comparison fails when an end-to-end metric worsened from A to B by
//! more than its declared bound, when a run did not report it, when any
//! run was incorrect or had a failed repetition, or when a count that
//! repeats exactly differs.  A metric within its bound whose runs spread
//! wider than that bound on either side is reported as unresolved, not as
//! ok: the sets could not have shown a regression of that size.

use std::collections::{BTreeMap, BTreeSet};

use mdo_obs::json::{self, Json};

use crate::record::Declaration;
use crate::stats::{median, quartiles};

/// Per-layer counts that repeat exactly on one commit; a difference
/// between two sets of the same commit means the benchmark is broken.
const EXACT: [&str; 5] = [
    "core.node.envelopes_per_step",
    "vmi.transport.wan_msgs_per_step",
    "vmi.transport.wan_bytes_per_step",
    "core.engine.sim.virt_step_ms.stencil",
    "core.engine.sim.virt_step_ms.leanmd",
];

/// (workload, trace, metric).
type Key = (String, u8, String);

/// What makes two records comparable.
#[derive(Debug, PartialEq)]
struct Conditions {
    run_seconds: f64,
    seed: f64,
    nproc: f64,
}

/// One file of records.
struct Set {
    conditions: Conditions,
    /// One value per run that reported the metric as a number.
    values: BTreeMap<Key, Vec<f64>>,
    /// Runs per (workload, trace).
    runs: BTreeMap<(String, u8), usize>,
    /// Runs that were incorrect or had failed repetitions.
    faults: Vec<String>,
}

fn load(text: &str, what: &str) -> Result<Set, String> {
    let mut conditions: Option<Conditions> = None;
    let (mut values, mut runs, mut faults) = (BTreeMap::<Key, Vec<f64>>::new(), BTreeMap::new(), Vec::new());
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("{what} line {}: {e}", i + 1))?;
        let field = |k: &str| rec.get(k).and_then(Json::as_f64).ok_or(format!("{what} line {}: no {k}", i + 1));
        if rec.get("quick") == Some(&Json::Bool(true)) {
            return Err(format!("{what} line {}: a --quick record is not a measurement", i + 1));
        }
        let c = Conditions { run_seconds: field("run_seconds")?, seed: field("seed")?, nproc: field("nproc")? };
        match &conditions {
            Some(first) if *first != c => {
                return Err(format!("{what} line {}: {c:?} differs from the file's first record {first:?}", i + 1));
            }
            _ => conditions = Some(c),
        }
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or(format!("{what} line {}: no workload", i + 1))?;
        let trace = field("trace")? as u8;
        let failed = field("failed")?;
        if rec.get("correct") != Some(&Json::Bool(true)) || failed > 0.0 {
            faults.push(format!(
                "{what} line {}: {workload} trace {trace} was not correct ({failed} failed repetitions)",
                i + 1
            ));
        }
        *runs.entry((workload.to_string(), trace)).or_default() += 1;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("{what} line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            // A reading that could not be taken was written as null.
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.entry((workload.to_string(), trace, name.clone())).or_default().push(v);
            }
        }
    }
    Ok(Set { conditions: conditions.ok_or(format!("{what}: no records"))?, values, runs, faults })
}

/// Interquartile range over median, as the benchmark pipeline computes a
/// metric's spread; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Compare two record files.  `Ok(report, passed)`, the report ending in a
/// one-line verdict; `Err` when the files cannot be compared at all.
pub fn compare(a_text: &str, b_text: &str, decl: &Declaration) -> Result<(String, bool), String> {
    let (a, b) = (load(a_text, "A")?, load(b_text, "B")?);
    if a.conditions != b.conditions {
        return Err(format!(
            "refusing to compare: A was recorded under {:?}, B under {:?}",
            a.conditions, b.conditions
        ));
    }
    let mut out = String::new();
    let (mut passed, mut unresolved) = (true, 0);
    for fault in a.faults.iter().chain(&b.faults) {
        out.push_str(&format!("{fault}\n"));
        passed = false;
    }
    out.push_str(&format!(
        "{:<18} {:<46} {:>12} {:>12} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "B/A", "bound"
    ));
    // Every metric either side reported, plus what each run must report:
    // the declared end-to-end metrics of a timed run, the exact counts of a
    // traced one.
    let mut keys: BTreeSet<Key> = a.values.keys().chain(b.values.keys()).cloned().collect();
    for (workload, trace) in a.runs.keys().chain(b.runs.keys()) {
        let required: Vec<&str> = match trace {
            0 => decl.end_to_end.iter().map(|d| d.name.as_str()).collect(),
            _ => EXACT.to_vec(),
        };
        keys.extend(required.into_iter().map(|name| (workload.clone(), *trace, name.to_string())));
    }
    for key in &keys {
        let (workload, trace, name) = key;
        let gated = decl.end_to_end.iter().find(|d| *trace == 0 && d.name == *name);
        let exact = *trace == 1 && EXACT.contains(&name.as_str());
        let side = |set: &Set| -> (Vec<f64>, bool) {
            let values = set.values.get(key).cloned().unwrap_or_default();
            let runs = set.runs.get(&(workload.clone(), *trace)).copied().unwrap_or(0);
            let complete = !values.is_empty() && values.len() == runs;
            (values, complete)
        };
        let ((va, a_complete), (vb, b_complete)) = (side(&a), side(&b));
        if (gated.is_some() || exact) && !(a_complete && b_complete) {
            passed = false;
            out.push_str(&format!(
                "{workload:<18} {name:<46} {:>12} {:>12} {:>8} {:>7}  MISSING (n={}/{})\n",
                "-",
                "-",
                "-",
                "-",
                va.len(),
                vb.len()
            ));
            continue;
        }
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let (ma, mb) = (median(&va), median(&vb));
        let (bound, verdict) = match gated {
            Some(d) => {
                let bound = d.bound.unwrap_or(0.0);
                let worse = if d.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
                let widest = spread(&va).max(spread(&vb));
                let verdict = if worse > bound {
                    passed = false;
                    "PAST BOUND".to_string()
                } else if widest > bound {
                    unresolved += 1;
                    format!("UNRESOLVED: runs spread by {:.0} %", widest * 100.0)
                } else {
                    "ok".to_string()
                };
                (format!("{bound:.2}"), verdict)
            }
            None if exact => {
                let same = va.iter().chain(&vb).all(|v| *v == va[0]);
                passed &= same;
                ("exact".to_string(), if same { "same" } else { "DIFFERS" }.to_string())
            }
            None => ("-".to_string(), String::new()),
        };
        out.push_str(&format!(
            "{workload:<18} {name:<46} {ma:>12.4} {mb:>12.4} {:>8.4} {bound:>7}  {verdict} (n={}/{})\n",
            mb / ma,
            va.len(),
            vb.len()
        ));
    }
    out.push_str(if passed {
        "every run was correct, no end-to-end metric is past its bound, every exact count is the same"
    } else {
        "the sets do not agree: see the rows marked PAST BOUND, MISSING or DIFFERS and the lines above the table"
    });
    match unresolved {
        0 => out.push('\n'),
        n => out.push_str(&format!("; within the bound but UNRESOLVED: {n} (compare again on a quieter host)\n")),
    }
    Ok((out, passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `--out` record, reduced to what `compare` reads.  A value is
    /// JSON text, so that `null` can be given.
    fn record(workload: &str, trace: u8, seed: u64, failed: u32, metrics: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"seed\": {seed}, \"run_seconds\": 28, \
             \"quick\": false, \"nproc\": 2, \"correct\": {}, \"attempted\": 24, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}\n",
            failed == 0,
            metrics.join(", ")
        )
    }

    /// A timed run of `sim_sweep`: every end-to-end metric, `wan_lan_skew` as given.
    fn timed_failing(seed: u64, skew: &str, failed: u32) -> String {
        let e2e = [("wan_lan_skew", skew), ("wan_kib_per_step", "800.0"), ("peak_rss_mib", "40.0"), ("setup_s", "1.0")];
        record("sim_sweep", 0, seed, failed, &e2e)
    }

    fn timed(seed: u64, skew: &str) -> String {
        timed_failing(seed, skew, 0)
    }

    /// A traced run of `sim_sweep` reporting every exact count as `count`.
    fn traced(count: &str) -> String {
        record("sim_sweep", 1, 1, 0, &EXACT.map(|name| (name, count)))
    }

    fn verdict(a: &str, b: &str) -> (String, bool) {
        compare(a, b, &Declaration::compiled_in()).expect("comparable")
    }

    #[test]
    fn medians_within_the_bound_pass_and_beyond_it_fail() {
        let decl = Declaration::compiled_in();
        let bound =
            decl.end_to_end.iter().find(|d| d.name == "wan_lan_skew").and_then(|d| d.bound).expect("a declared bound");
        let a = timed(1, "10.0") + &timed(1, "10.2") + &timed(1, "9.9");
        let (report, passed) = verdict(&a, &timed(1, &format!("{}", 10.0 * (1.0 + bound * 0.5))));
        assert!(passed, "{report}");
        let (report, passed) = verdict(&a, &timed(1, &format!("{}", 10.0 * (1.0 + bound * 1.5))));
        assert!(!passed && report.contains("PAST BOUND"), "{report}");
        // An improvement is never past a bound.
        assert!(verdict(&a, &timed(1, "5.0")).1);
    }

    #[test]
    fn records_made_under_different_conditions_are_refused() {
        let decl = Declaration::compiled_in();
        let err = compare(&timed(1, "10.0"), &timed(2, "10.0"), &decl).expect_err("seeds differ");
        assert!(err.contains("refusing to compare"), "{err}");
        let mixed = timed(1, "10.0") + &timed(3, "10.0");
        assert!(compare(&mixed, &mixed, &decl).is_err(), "one file mixing seeds is refused too");
        let quick = timed(1, "10.0").replace("\"quick\": false", "\"quick\": true");
        assert!(compare(&quick, &quick, &decl).is_err());
    }

    #[test]
    fn a_declared_metric_missing_or_null_on_either_side_fails() {
        let good = timed(1, "10.0");
        // Every repetition of B failed: its skew was NaN, written as null.
        for (a, b) in [(&good, &timed(1, "null")), (&timed(1, "null"), &good)] {
            let (report, passed) = verdict(a, b);
            assert!(!passed && report.contains("MISSING"), "{report}");
        }
        // One of B's two runs did not report it.
        let (report, passed) = verdict(&good, &(good.clone() + &timed(1, "null")));
        assert!(!passed && report.contains("MISSING"), "{report}");
        // The metric is absent altogether, and so is the workload.
        let bare = record("sim_sweep", 0, 1, 0, &[("wan_lan_skew", "10.0")]);
        assert!(!verdict(&good, &bare).1);
        let other = record("stencil_mask", 0, 1, 0, &[]);
        assert!(!verdict(&(good.clone() + &other), &good).1, "B has no run of a workload A has");
    }

    #[test]
    fn an_incorrect_run_or_a_failed_repetition_fails() {
        let good = timed(1, "10.0");
        let bad = timed_failing(1, "10.0", 2);
        for (a, b) in [(&good, &bad), (&bad, &good)] {
            let (report, passed) = verdict(a, b);
            assert!(!passed && report.contains("was not correct (2 failed repetitions)"), "{report}");
        }
    }

    #[test]
    fn an_exact_count_that_differs_fails() {
        assert!(verdict(&traced("3968"), &traced("3968")).1);
        let (report, passed) = verdict(&traced("3968"), &traced("3969"));
        assert!(!passed && report.contains("DIFFERS"), "{report}");
        let (report, passed) = verdict(&traced("3968"), &traced("null"));
        assert!(!passed && report.contains("MISSING"), "{report}");
    }

    #[test]
    fn runs_spread_wider_than_the_bound_leave_the_metric_unresolved() {
        // Same medians, but A's runs are 10 / 10 / 20.
        let a = timed(1, "10.0") + &timed(1, "10.0") + &timed(1, "20.0");
        let b = timed(1, "10.0") + &timed(1, "10.1") + &timed(1, "9.9");
        let (report, passed) = verdict(&a, &b);
        assert!(passed && report.contains("UNRESOLVED: runs spread by 100 %"), "{report}");
        assert!(report.ends_with("within the bound but UNRESOLVED: 1 (compare again on a quieter host)\n"), "{report}");
        assert!(!verdict(&b, &b).0.contains("UNRESOLVED"));
    }
}
