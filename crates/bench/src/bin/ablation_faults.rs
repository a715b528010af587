//! Ablation: latency masking on an *unreliable* WAN.
//!
//! The paper's Grid experiments assume VMI delivers every cross-site
//! message; real wide-area links drop, duplicate and reorder.  This
//! ablation reruns the canonical 2048×2048 stencil on P = 8 with 8 ms
//! one-way cross-cluster latency while sweeping the WAN loss rate, with
//! duplication and reordering riding along, and reports:
//!
//! * per-step time — how much of the retransmission delay the
//!   message-driven overlap still hides;
//! * the fault counters — what the wire actually did;
//! * a bit-exactness verdict against the sequential reference — the
//!   reliable layer must make every run produce *the* answer.
//!
//! Usage: `ablation_faults [--steps N] [--objects K] [--csv]`

use mdo_apps::stencil::{self, seq::SeqStencil, StencilConfig};
use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::program::RunConfig;
use mdo_core::Ctr;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, FaultPlan};

const PROCESSORS: u32 = 8;
const LATENCY_MS: u64 = 8;
const LOSS_PCT: [u32; 4] = [0, 1, 5, 10];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u32 = arg_value(&args, "--steps").map(|s| s.parse().expect("--steps N")).unwrap_or(10);
    let objects: usize = arg_value(&args, "--objects").map(|s| s.parse().expect("--objects K")).unwrap_or(64);
    let csv = arg_flag(&args, "--csv");

    println!("Ablation: fault injection on the WAN link");
    println!(
        "(2048x2048 stencil, {objects} objects on {PROCESSORS} processors, \
         {LATENCY_MS} ms one-way latency, {steps} steps;"
    );
    println!(" loss swept, +2% duplication and +2% reordering whenever faults are on)\n");

    let mut cfg = StencilConfig::paper(objects, steps);
    cfg.compute = true; // real field values, so bit-exactness is checkable

    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    let want: Vec<u64> = reference.block_sums(cfg.k()).iter().map(|v| v.to_bits()).collect();

    let mut table =
        Table::new(vec!["loss_%", "ms/step", "dropped", "retransmits", "dup_dropped", "reordered", "bit_exact"]);
    for &pct in LOSS_PCT.iter() {
        let plan = (pct > 0).then(|| {
            FaultPlan::loss(pct as f64 / 100.0)
                .with_duplicate(0.02)
                .with_reorder(0.02)
                .with_seed(2005)
                .with_rto(Dur::from_millis(2 * LATENCY_MS))
        });
        let net = NetworkModel::two_cluster_sweep(PROCESSORS, Dur::from_millis(LATENCY_MS));
        let out = stencil::run_sim(cfg.clone(), net, RunConfig { fault_plan: plan, ..RunConfig::default() });

        let got: Vec<u64> = out.block_sums.iter().map(|v| v.to_bits()).collect();
        let exact = got == want;
        if let Some(err) = &out.report.transport_error {
            println!("loss {pct}%: transport gave up: {err}");
        }
        let f = |c| out.report.counters.get(c).to_string();
        table.row(vec![
            pct.to_string(),
            ms(out.ms_per_step),
            f(Ctr::Drops),
            f(Ctr::Retransmits),
            f(Ctr::DupDropped),
            f(Ctr::Reordered),
            if exact { "yes".to_string() } else { "NO".to_string() },
        ]);
        assert!(exact, "loss {pct}%: field diverged from the sequential reference");
    }
    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("Every row bit-identical to the sequential reference: the reliable layer");
    println!("turns an unreliable WAN back into the paper's assumed lossless one, and");
    println!("message-driven overlap keeps the slowdown far below the raw retransmit cost.");
}
