//! The `mdo_check` binary: CI-facing schedule exploration.
//!
//! ```text
//! mdo_check [--app stencil-mini|stencil-elastic|leanmd-mini|probe]
//!           [--schedules N] [--seed S] [--pct-depth D]
//!           [--differential-every N] [--shrink-budget N]
//!           [--agg] [--flow | --flow-shed] [--credit-bytes N] [--tree]
//!           [--loss P] [--out DIR] [--replay FILE]
//! ```
//!
//! Without `--app`, both mini configs are explored.  `--flow` (lossless
//! `Block`) and `--flow-shed` pick the flow-control policy and
//! `--credit-bytes` its window, in any order; either arms flow control
//! with the default 64 KiB window.  `--tree` routes every collective over
//! the two-level tree.  `--loss P` runs every schedule over a lossy WAN:
//! `FaultPlan::loss(P)` with a fixed seed, recovered by the reliable
//! protocol, whose retransmits and held-back frames re-time delivery.
//! Failing schedules
//! are shrunk and written to `--out` (default `target/mdo-check`) as
//! `schedule-<app>-<index>.json`; the process exits non-zero if anything
//! failed.  `--replay FILE` re-executes one `schedule.json` instead of
//! exploring, printing the violations it reproduces.

use std::path::PathBuf;
use std::process::ExitCode;

use mdo_check::{explore, replay_violations, CheckApp, ExploreConfig, ScheduleFile};
use mdo_netsim::{AggConfig, FaultPlan, OverloadPolicy};

/// The fault-stream seed of `--loss`: one fixed WAN per probability.
const LOSS_SEED: u64 = 2005;

struct Args {
    apps: Vec<CheckApp>,
    cfg: ExploreConfig,
    out: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        apps: vec![CheckApp::stencil_mini(), CheckApp::leanmd_mini()],
        cfg: ExploreConfig { differential_every: 25, ..ExploreConfig::default() },
        out: PathBuf::from("target/mdo-check"),
        replay: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--app" => {
                let name = value()?;
                args.apps = vec![CheckApp::by_name(&name).ok_or(format!("unknown app {name:?}"))?];
            }
            "--schedules" => args.cfg.schedules = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--pct-depth" => args.cfg.pct_depth = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--differential-every" => {
                args.cfg.differential_every = value()?.parse().map_err(|e| format!("{flag}: {e}"))?
            }
            "--shrink-budget" => args.cfg.shrink_budget = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--agg" => args.cfg.run.agg = Some(AggConfig::default()),
            "--flow" | "--flow-shed" => {
                let policy = if flag == "--flow" { OverloadPolicy::Block } else { OverloadPolicy::Shed };
                args.cfg.run.flow = Some(args.cfg.run.flow.unwrap_or_default().with_policy(policy));
            }
            "--credit-bytes" => {
                let window = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                args.cfg.run.flow = Some(args.cfg.run.flow.unwrap_or_default().with_credit_bytes(window));
            }
            "--tree" => args.cfg.run.tree_collectives = true,
            "--loss" => {
                let p: f64 = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{flag}: {p} is not a probability"));
                }
                args.cfg.run.fault_plan = Some(FaultPlan::loss(p).with_seed(LOSS_SEED));
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn replay_one(path: &PathBuf, cfg: &ExploreConfig) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = ScheduleFile::from_json(&text)?;
    let app = CheckApp::by_name(&file.app).ok_or(format!("unknown app {:?} in schedule", file.app))?;
    // The reference digest is recomputed from a FIFO run of the same app.
    let reference = explore(&app, &ExploreConfig { schedules: 0, ..cfg.clone() });
    let violations = replay_violations(&app, cfg, &reference.reference_digest, &file.trace);
    println!(
        "replay of {} ({} choices, {} deviations): {} violation(s)",
        path.display(),
        file.trace.choices.len(),
        file.trace.deviations(),
        violations.len()
    );
    for v in &violations {
        println!("  - {v}");
    }
    Ok(violations.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mdo_check: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        return match replay_one(path, &args.cfg) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mdo_check: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut all_passed = true;
    for app in &args.apps {
        let report = explore(app, &args.cfg);
        println!(
            "{}: {} schedules explored ({} distinct, horizon {}), {} differential run(s), {} failing",
            report.app,
            report.outcomes.len(),
            report.distinct_schedules(),
            report.horizon,
            report.differential_runs,
            report.failing.len()
        );
        if !report.reference_violations.is_empty() {
            all_passed = false;
            println!("  FIFO reference run itself violates invariants:");
            for v in &report.reference_violations {
                println!("  - {v}");
            }
        }
        for (index, v) in &report.differential_violations {
            all_passed = false;
            println!("  differential mismatch at schedule {index}: {v}");
        }
        for fail in &report.failing {
            all_passed = false;
            println!(
                "  schedule {} FAILED ({} violation(s)); shrunk {} -> {} deviations in {} replays",
                fail.index,
                fail.violations.len(),
                fail.shrunk.from_deviations,
                fail.shrunk.to_deviations,
                fail.shrunk.runs
            );
            for v in &fail.violations {
                println!("    - {v}");
            }
            if let Err(e) = std::fs::create_dir_all(&args.out) {
                eprintln!("mdo_check: cannot create {}: {e}", args.out.display());
                continue;
            }
            let path = args.out.join(format!("schedule-{}-{}.json", report.app, fail.index));
            match std::fs::write(&path, fail.file.to_json()) {
                Ok(()) => println!("    minimal reproducer written to {}", path.display()),
                Err(e) => eprintln!("mdo_check: cannot write {}: {e}", path.display()),
            }
        }
    }

    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdo_netsim::FlowConfig;

    fn explore_cfg(flags: &[&str]) -> ExploreConfig {
        parse_args(flags.iter().map(|f| f.to_string())).expect("flags parse").cfg
    }

    #[test]
    fn flow_flags_set_the_same_config_in_either_order() {
        for (policy_flag, policy) in [("--flow", OverloadPolicy::Block), ("--flow-shed", OverloadPolicy::Shed)] {
            let window_first = explore_cfg(&["--credit-bytes", "4096", policy_flag]);
            let policy_first = explore_cfg(&[policy_flag, "--credit-bytes", "4096"]);
            assert_eq!(format!("{window_first:?}"), format!("{policy_first:?}"), "{policy_flag}");
            let want = FlowConfig::default().with_credit_bytes(4096).with_policy(policy);
            assert_eq!(window_first.run.flow, Some(want), "{policy_flag}");
        }
        assert_eq!(
            explore_cfg(&["--flow-shed"]).run.flow,
            Some(FlowConfig::default().with_policy(OverloadPolicy::Shed))
        );
    }

    #[test]
    fn loss_arms_a_seeded_lossy_wan_and_rejects_what_is_no_probability() {
        let plan = explore_cfg(&["--loss", "0.05"]).run.fault_plan.expect("a fault plan");
        assert_eq!((plan.drop, plan.seed), (0.05, LOSS_SEED));
        for bad in ["1.5", "-0.1", "lots"] {
            assert!(parse_args(["--loss", bad].iter().map(|f| f.to_string())).is_err(), "{bad}");
        }
    }
}
