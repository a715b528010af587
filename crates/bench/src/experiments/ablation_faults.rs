//! Ablation: latency masking on an *unreliable* WAN.
//!
//! The paper's Grid experiments assume VMI delivers every cross-site
//! message; real wide-area links drop, duplicate and reorder.  This
//! ablation reruns the canonical 2048×2048 stencil on P = 8 with 8 ms
//! one-way cross-cluster latency while sweeping the WAN loss rate, with
//! duplication and reordering riding along, then LeanMD on two PEs, whose
//! force and coordinate fan-outs put bursts of well over 64 frames on the
//! one WAN pair at once, and reports:
//!
//! * per-step time — how much of the retransmission delay the
//!   message-driven overlap still hides, now that a lost frame holds back
//!   its pair's later frames until the repair lands (head-of-line
//!   blocking, as on the wire);
//! * the fault counters — what the wire actually did — with the
//!   retransmits split into repairs of lost frames and spurious ones (the
//!   receiver held the frame and its ack had not come back, or the wire's
//!   reorder stash still held it);
//! * a bit-exactness verdict against the sequential reference — the
//!   reliable layer must make every run produce *the* answer.

use mdo_apps::leanmd::{self, seq::SeqMd, MdConfig};
use mdo_apps::stencil::{self, seq::SeqStencil, StencilConfig};
use mdo_core::program::{RunConfig, RunReport};
use mdo_core::Ctr;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, FaultPlan};

use crate::table::{ms, Table};

const PROCESSORS: u32 = 8;
const LATENCY_MS: u64 = 8;
const LOSS_PCT: [u32; 4] = [0, 1, 5, 10];
const STEPS: u32 = 10;
const OBJECTS: usize = 64;
/// The retransmit timeout in one-way latencies.  At 2 the timer fires
/// before the ack of an undamaged frame is back, and spurious retransmits
/// swamp the repairs.
const RTO_LATENCIES: u64 = 4;
/// LeanMD's processors: with one WAN pair each way, every coordinate and
/// force of a step crosses on it.
const MD_PROCESSORS: u32 = 2;

/// ms/step, the wire's fault counters and the bit-exactness verdict per
/// loss rate, for the stencil and for LeanMD.
pub fn generate() -> Vec<String> {
    let mut out = String::new();
    outln!(out, "Ablation: fault injection on the WAN link");
    outln!(
        out,
        "(2048x2048 stencil, {OBJECTS} objects on {PROCESSORS} processors, \
         {LATENCY_MS} ms one-way latency, {STEPS} steps;"
    );
    outln!(out, " loss swept, +2% duplication and +2% reordering whenever faults are on,");
    outln!(out, " retransmit timeout {} ms = {RTO_LATENCIES} x the latency)\n", RTO_LATENCIES * LATENCY_MS);

    let mut cfg = StencilConfig::paper(OBJECTS, STEPS);
    cfg.compute = true; // real field values, so bit-exactness is checkable
    let mut reference = SeqStencil::new(cfg.mesh);
    reference.run(cfg.steps);
    let want = bits(reference.block_sums(cfg.k()));
    let table = sweep(&mut out, |fault_plan| {
        let net = NetworkModel::two_cluster_sweep(PROCESSORS, Dur::from_millis(LATENCY_MS));
        let run = stencil::run_sim(cfg.clone(), net, RunConfig { fault_plan, ..RunConfig::default() });
        (run.ms_per_step, bits(run.block_sums) == want, run.report)
    });
    outln!(out, "{table}");

    let (side, atoms) = (3, 4);
    let md = MdConfig::validation(side, atoms, STEPS);
    outln!(out, "LeanMD, same plans ({side}^3 cells of {atoms} atoms on {MD_PROCESSORS} processors, {STEPS} steps):\n");
    let mut reference = SeqMd::new(md.grid, md.atoms_per_cell, md.cell_width, md.dt, md.params, md.seed);
    reference.run(md.steps);
    let want = bits(reference.checksums().into_iter().chain([reference.kinetic(), reference.last_potential]));
    let table = sweep(&mut out, |fault_plan| {
        let net = NetworkModel::two_cluster_sweep(MD_PROCESSORS, Dur::from_millis(LATENCY_MS));
        let run = leanmd::run_sim(md.clone(), net, RunConfig { fault_plan, ..RunConfig::default() });
        let got = bits(run.checksums.iter().copied().chain([run.kinetic, run.potential]));
        (run.ms_per_step, got == want, run.report)
    });
    outln!(out, "{table}");
    outln!(out, "Every row bit-identical to the sequential reference: the reliable layer");
    outln!(out, "turns an unreliable WAN back into the paper's assumed lossless one, and");
    outln!(out, "message-driven overlap keeps the slowdown far below the raw retransmit cost.");
    vec![out]
}

fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

/// One row per loss rate: `run` takes the rate's plan and returns ms/step,
/// whether the result is bit-exact, and the report; a transport error is
/// noted in `out`.
fn sweep(out: &mut String, mut run: impl FnMut(Option<FaultPlan>) -> (f64, bool, RunReport)) -> String {
    let mut table = Table::new(vec![
        "loss_%",
        "ms/step",
        "dropped",
        "retransmits",
        "repairs",
        "spurious",
        "dup_dropped",
        "reordered",
        "bit_exact",
    ]);
    for &pct in LOSS_PCT.iter() {
        let plan = (pct > 0).then(|| {
            FaultPlan::loss(pct as f64 / 100.0)
                .with_duplicate(0.02)
                .with_reorder(0.02)
                .with_seed(2005)
                .with_rto(Dur::from_millis(RTO_LATENCIES * LATENCY_MS))
        });
        let (ms_per_step, exact, report) = run(plan);
        if let Some(err) = &report.transport_error {
            outln!(out, "loss {pct}%: transport gave up: {err}");
        }
        let get = |c| report.counters.get(c);
        let f = |c| get(c).to_string();
        table.row(vec![
            pct.to_string(),
            ms(ms_per_step),
            f(Ctr::Drops),
            f(Ctr::Retransmits),
            (get(Ctr::Retransmits) - get(Ctr::SpuriousRetransmits)).to_string(),
            f(Ctr::SpuriousRetransmits),
            f(Ctr::DupDropped),
            f(Ctr::Reordered),
            if exact { "yes".to_string() } else { "NO".to_string() },
        ]);
        assert!(exact, "loss {pct}%: the result diverged from the sequential reference");
    }
    table.render()
}
