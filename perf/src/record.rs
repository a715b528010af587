//! What a run reports: named metrics, the one-line result the benchmark
//! pipeline reads, the `--out` record, and the declaration in
//! `BENCHMARK.json` that both must agree with.

use mdo_obs::json::{self, escape, Json};

use crate::stats::Summary;

/// The benchmark's declaration, compiled in so the binary, its tests and
/// `perf compare` cannot disagree with the file the pipeline reads.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Median, quartiles and count over the repetitions behind it.
    pub value: Summary,
}

/// Metrics in the order they were measured.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric; a name is reported once.
    pub fn put(&mut self, name: &str, unit: &str, value: Summary) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name: name.to_string(), unit: unit.to_string(), value });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Declaration {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    /// Parse `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no {key} list"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("{key}: metric without {k}"));
                    Ok(Declared {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declaration {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in declaration.
    pub fn compiled_in() -> Declaration {
        Declaration::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }
}

/// One timed repetition as the `--out` record keeps it.
#[derive(Clone, Copy, Debug)]
pub struct RepRow {
    /// ms per step as measured.
    pub step_ms: f64,
    /// Share of processor time the hypervisor stole meanwhile.
    pub steal: f64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// 0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer).
    pub trace: u8,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub run_seconds: u64,
    /// `--quick` smoke run (numbers are not comparable).
    pub quick: bool,
    /// Processors available.
    pub nproc: usize,
    /// 1-minute load average at process start and at exit.
    pub loadavg: (f64, f64),
    /// Share of processor time the hypervisor stole over the whole run.
    pub steal_share: f64,
    /// Every timed WAN repetition, in run order.
    pub wan_reps: Vec<RepRow>,
    /// Every timed LAN repetition, in run order.
    pub lan_reps: Vec<RepRow>,
    /// Set-up rounds, each with one untimed warm-up pair.
    pub setup_rounds: usize,
    /// The oracle matched bit for bit and no repetition failed.
    pub correct: bool,
    /// Repetitions attempted.
    pub attempted: usize,
    /// Repetitions that failed.
    pub failed: usize,
    /// The pass's declared metrics: what the result line carries.
    pub metrics: Metrics,
    /// Readings printed and recorded beside them but not declared for this
    /// pass (the timed pass's wall-clock step times, which are per-layer).
    pub info: Metrics,
}

fn num(v: f64) -> String {
    // JSON has no NaN or infinity; a reading that could not be taken is null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn list(reps: &[RepRow], f: impl Fn(&RepRow) -> f64) -> String {
    reps.iter().map(|r| num(f(r))).collect::<Vec<_>>().join(", ")
}

impl RunRecord {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric a value as measured and a unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    num(m.value.median),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The `--out` record: one JSON object on one line, with what is
    /// needed to judge whether two records are comparable.
    pub fn out_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .chain(&self.info.0)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    escape(&m.name),
                    num(m.value.median),
                    escape(&m.unit),
                    num(m.value.q1),
                    num(m.value.q3),
                    m.value.n
                )
            })
            .collect();
        format!(
            "{{\"schema\": 1, \"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"run_seconds\": {}, \"quick\": {}, \
             \"nproc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \"steal_share\": {}, \
             \"loopback\": \"127.0.0.1, not a real link\", \"setup_rounds\": {}, \"reps_wan\": {}, \"reps_lan\": {}, \
             \"wan_step_ms\": [{}], \"wan_steal\": [{}], \"lan_step_ms\": [{}], \"lan_steal\": [{}], \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            escape(&self.workload),
            self.trace,
            self.seed,
            self.run_seconds,
            self.quick,
            self.nproc,
            num(self.loadavg.0),
            num(self.loadavg.1),
            num(self.steal_share),
            self.setup_rounds,
            self.wan_reps.len(),
            self.lan_reps.len(),
            list(&self.wan_reps, |r| r.step_ms),
            list(&self.wan_reps, |r| r.steal),
            list(&self.lan_reps, |r| r.step_ms),
            list(&self.lan_reps, |r| r.steal),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable table: every metric by name with its unit,
    /// median, quartiles and n.
    pub fn table(&self) -> String {
        let mut out = format!("{:<46} {:>14} {:>14} {:>14} {:>5}  unit\n", "metric", "median", "q1", "q3", "n");
        for m in self.metrics.0.iter().chain(&self.info.0) {
            out.push_str(&format!(
                "{:<46} {:>14.4} {:>14.4} {:>14.4} {:>5}  {}\n",
                m.name, m.value.median, m.value.q1, m.value.q3, m.value.n, m.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("step_ms", "ms", Summary::of(&[1.0, 2.0, 3.0]));
        metrics.put("unreadable", "MiB", Summary::single(f64::NAN));
        let rec = RunRecord {
            workload: "sim_sweep".into(),
            trace: 0,
            seed: 7,
            run_seconds: 28,
            quick: true,
            nproc: 2,
            loadavg: (0.5, f64::NAN),
            steal_share: 0.01,
            wan_reps: [1.0, 2.0, 3.0].map(|step_ms| RepRow { step_ms, steal: 0.1 }).to_vec(),
            lan_reps: vec![RepRow { step_ms: 1.5, steal: 0.0 }],
            setup_rounds: 3,
            correct: true,
            attempted: 6,
            failed: 0,
            metrics,
            info: {
                let mut info = Metrics::default();
                info.put("aside", "ms", Summary::single(4.0));
                info
            },
        };
        assert!(rec.table().contains("aside"));
        let Json::Obj(members) = json::parse(&rec.result_line()).expect("valid JSON") else { panic!("an object") };
        assert_eq!(
            members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        let step = members[3].1.get("step_ms").expect("step_ms");
        assert_eq!(step.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(step.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(members[3].1.get("unreadable").and_then(|m| m.get("value")), Some(&Json::Null));
        assert_eq!(members[3].1.get("aside"), None, "the result line carries the declared metrics only");
        let out = json::parse(&rec.out_line()).expect("valid JSON");
        assert_eq!(out.get("loadavg_end"), Some(&Json::Null));
        assert!(out.get("metrics").and_then(|m| m.get("aside")).is_some(), "the record keeps the asides");
        assert_eq!(out.get("reps_wan").and_then(Json::as_f64), Some(3.0));
        assert_eq!(out.get("wan_steal").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(out.get("lan_step_ms").and_then(Json::as_arr), Some(&[Json::Num(1.5)][..]));
        assert_eq!(
            out.get("metrics").and_then(|m| m.get("step_ms")).and_then(|m| m.get("n")).and_then(Json::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn committed_declaration_meets_the_contract() {
        let d = Declaration::compiled_in();
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!((1..=60).contains(&d.run_seconds));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert!(setup.unit == "s" && setup.lower_is_better);
        let widest = d.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        let mut names: Vec<&str> = d.workloads.iter().map(String::as_str).collect();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            names.push(&m.name);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &d.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{} has a bound of at most 0.25", m.name);
        }
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "every name is used once");
    }
}
