//! A `--quick` run of every workload, both passes: the binary exits 0,
//! its last line is the result object the pipeline reads, and the metric
//! names and units it emits are exactly those `BENCHMARK.json` declares.

use std::process::Command;

use mdo_obs::json::{self, Json};
use mdo_perf::record::{Declaration, Declared};

fn quick_run(workload: &str, trace: u8, out: &std::path::Path) -> Json {
    let run = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--workload", workload, "--seed", "3", "--quick"])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn perf");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(run.status.success(), "{workload} trace {trace}: {}\n{stdout}", String::from_utf8_lossy(&run.stderr));
    json::parse(stdout.lines().last().expect("a last line")).expect("the last line is one JSON object")
}

fn assert_matches_declaration(result: &Json, declared: &[Declared], what: &str) {
    let Json::Obj(members) = result else { panic!("{what}: not an object") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0), "{what}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{what}");
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{what}: no metrics") };
    let mut got: Vec<(&str, &str)> =
        metrics.iter().map(|(k, m)| (k.as_str(), m.get("unit").and_then(Json::as_str).expect("unit"))).collect();
    let mut want: Vec<(&str, &str)> = declared.iter().map(|d| (d.name.as_str(), d.unit.as_str())).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{what}: emitted metrics are exactly the declared ones");
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{what}: {name} is a number");
    }
}

// One test, workloads in sequence: they time themselves, and the TCP
// workloads reserve loopback ports that a concurrent run could take.
#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let decl = Declaration::compiled_in();
    assert!(decl.end_to_end.len() <= 16 && decl.per_layer.len() <= 128);
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("perf/out");
    let out = out_dir.join("smoke.jsonl");
    let _ = std::fs::remove_file(&out);
    for workload in &decl.workloads {
        let timed = quick_run(workload, 0, &out);
        assert_matches_declaration(&timed, &decl.end_to_end, &format!("{workload} --trace 0"));
        let traced = quick_run(workload, 1, &out);
        assert_matches_declaration(&traced, &decl.per_layer, &format!("{workload} --trace 1"));

        let trace = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.json"))).expect("trace file");
        let doc = json::parse(&trace).expect("the trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert!(events.len() > 20, "{workload}: a span per call into a layer");
        assert!(events.iter().skip(1).all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    }
    let records = std::fs::read_to_string(&out).expect("--out records");
    assert_eq!(records.lines().count(), 2 * decl.workloads.len(), "one record per run");
    for line in records.lines() {
        let rec = json::parse(line).expect("a record is one JSON object");
        for key in
            ["nproc", "seed", "run_seconds", "loadavg_start", "loadavg_end", "reps_wan", "reps_lan", "setup_rounds"]
        {
            assert!(rec.get(key).and_then(Json::as_f64).is_some(), "record carries {key}");
        }
    }
}
