//! Ablation: surviving PE crashes with buddy checkpoints.
//!
//! The paper's §2.1 claims migratability buys "checkpointing, fault
//! tolerance, and the ability to shrink and expand the set of
//! processors".  This ablation prices that claim on the canonical
//! 2048×2048 stencil on P = 8 with 8 ms one-way cross-cluster latency:
//! the checkpoint period K (an AtSync barrier — and therefore a buddy
//! checkpoint — every K steps) is swept, one PE crash is injected at
//! 60 % of the run, and each row reports
//!
//! * checkpoint overhead — makespan with buddy checkpoints (no crash)
//!   vs. the same barriers without the fault-tolerance machinery;
//! * recovery latency — extra makespan the crash costs end to end
//!   (detection + snapshot reassembly + shrink-restart + replay);
//! * steps replayed — barrier rounds redone from the last checkpoint.
//!
//! K = 0 keeps checkpointing off: the same crash is then unrecoverable
//! and the run ends early with a structured error — the "why pay the
//! overhead" row.

use mdo_apps::stencil::{self, StencilConfig};
use mdo_core::program::RunConfig;
use mdo_core::Ctr;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, FailurePlan, Pe};

use crate::table::{ms, Table};

const PROCESSORS: u32 = 8;
const LATENCY_MS: u64 = 8;
const PERIODS: [u32; 4] = [0, 10, 50, 100];
const STEPS: u32 = 200;
const OBJECTS: usize = 64;

fn run(cfg: &StencilConfig, plan: Option<FailurePlan>) -> stencil::StencilOutcome {
    let net = NetworkModel::two_cluster_sweep(PROCESSORS, Dur::from_millis(LATENCY_MS));
    stencil::run_sim(cfg.clone(), net, RunConfig { failure_plan: plan, ..RunConfig::default() })
}

/// Checkpoint overhead, recovery latency and replayed steps per period.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "Ablation: PE failure tolerance (buddy checkpoints + shrink-restart)");
    outln!(
        out,
        "(2048x2048 stencil, {OBJECTS} objects on {PROCESSORS} processors, \
         {LATENCY_MS} ms one-way latency, {STEPS} steps;"
    );
    outln!(out, " checkpoint every K steps, one crash of PE 2 at 60% of the failure-free makespan)\n");

    let mut table =
        Table::new(vec!["K", "ms/step", "ckpt_overhead_%", "ckpt_MB", "recovery_ms", "steps_replayed", "outcome"]);
    for &k in PERIODS.iter() {
        let mut cfg = StencilConfig::paper(OBJECTS, STEPS);
        cfg.lb_period = (k > 0).then_some(k);

        // Same barrier schedule without fault tolerance: the overhead
        // baseline isolates the cost of the buddy-checkpoint traffic.
        let bare = run(&cfg, None);
        // Armed but failure-free: what the insurance premium costs.
        let armed = run(&cfg, Some(FailurePlan::new()));
        // Armed with one injected crash.
        let at = Dur::from_nanos(armed.total.as_nanos() * 3 / 5);
        let crashed = run(&cfg, Some(FailurePlan::new().crash_at(Pe(2), at)));

        let overhead = 100.0 * (armed.total.as_nanos() as f64 / bare.total.as_nanos() as f64 - 1.0);
        let recovery_ms = (crashed.total.as_nanos().saturating_sub(armed.total.as_nanos())) as f64 / 1e6;
        let outcome = match &crashed.report.unrecoverable {
            None => format!(
                "recovered ({} failure, {} recovery)",
                crashed.report.failures.len(),
                crashed.report.counters.get(Ctr::Recoveries)
            ),
            Some(err) => format!("{err}"),
        };
        table.row(vec![
            if k == 0 { "off".into() } else { k.to_string() },
            ms(armed.ms_per_step),
            format!("{overhead:.2}"),
            format!("{:.2}", crashed.report.counters.get(Ctr::CheckpointBytes) as f64 / 1e6),
            format!("{recovery_ms:.1}"),
            // The report counts AtSync rounds; a round is K steps.
            (crashed.report.counters.get(Ctr::StepsReplayed) * u64::from(k)).to_string(),
            outcome,
        ]);
        if k > 0 {
            assert!(crashed.report.unrecoverable.is_none(), "K={k}: the crash must be survivable");
            assert_eq!(crashed.report.counters.get(Ctr::Recoveries), 1, "K={k}: exactly one recovery");
        } else {
            assert!(crashed.report.unrecoverable.is_some(), "K=0: no checkpoints means no recovery");
        }
    }
    outln!(out, "{}", table.render());
    outln!(out, "Denser checkpoints cost more steady-state overhead but replay fewer steps");
    outln!(out, "after a crash; with checkpointing off the same crash kills the job (cleanly,");
    outln!(out, "with a structured error) — the paper's §2.1 fault-tolerance claim, priced.");
    vec![out]
}
