//! `perf run --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--quick]`
//! and `perf compare A.jsonl B.jsonl`.  See `perf/README.md`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use mdo_perf::alloc::CountingAlloc;
use mdo_perf::jobs::{Workload, ALL};
use mdo_perf::record::Declaration;
use mdo_perf::run::{self, Args};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--quick]\n       \
                     perf compare A.jsonl B.jsonl";

fn parse_run(args: &[String]) -> Result<Args, String> {
    let decl = Declaration::compiled_in();
    let mut a = Args { workload: ALL[0], seed: 1, seconds: decl.run_seconds, trace: false, out: None, quick: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!("unknown workload {name}; one of {}", ALL.map(Workload::name).join(", "))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The benchmark pipeline passes BENCHMARK.json's run_seconds here.
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let record = run::run(&a);
    print!("{}", record.table());
    println!(
        "{} set-up rounds, {} WAN and {} LAN repetitions | attempted {} failed {} | correct: {} | \
         hypervisor stole {:.1} % of processor time",
        record.setup_rounds,
        record.wan_reps.len(),
        record.lan_reps.len(),
        record.attempted,
        record.failed,
        record.correct,
        record.steal_share * 100.0
    );
    if let Some(path) = &a.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("--out {}: {e}", path.display()))?;
        writeln!(f, "{}", record.out_line()).map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(if record.correct { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err(USAGE.into()) };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, passed) = mdo_perf::compare::compare(&read(a)?, &read(b)?, &Declaration::compiled_in())?;
    print!("{report}");
    Ok(if passed { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_cmd(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        _ => Err(USAGE.into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(64)
    })
}
