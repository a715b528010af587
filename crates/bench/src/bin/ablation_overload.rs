//! Ablation A12: end-to-end backpressure under open-loop overload.
//!
//! An open-loop driver on the fast cluster ticks every millisecond and
//! fires `k` fixed-size envelopes per tick across the WAN at a consumer
//! that drains one envelope per 100 us — a hard capacity of 10 000
//! envelopes/s no flow-control policy can raise.  Sweeping the arrival
//! rate from half capacity to 8x capacity answers, in exact virtual
//! time:
//!
//!  1. *No flow control*: the overload lands in the receiver's scheduler
//!     queue — memory grows with the overcommit, unboundedly.
//!  2. *Block*: nothing is lost; the overflow waits for credit at the
//!     sender, so memory moves to the sender's deferred bank and the
//!     makespan stretches to drain time (completeness over timeliness).
//!  3. *Shed*: overflow past the credit window is dropped with
//!     accounting; delivered goodput plateaus at capacity, the delivered
//!     fraction degrades monotonically with the overcommit, and peak
//!     queue memory stays near the credit window — graceful degradation.
//!
//! Results land in `results/BENCH_overload.json`.
//!
//! Usage: `ablation_overload [--ticks N] [--out FILE] [--csv]`

use mdo_bench::table::{ms, Table};
use mdo_bench::{arg_flag, arg_value};
use mdo_core::prelude::{Chare, Ctx, ElemId, EntryId, Mapping, Program, RunConfig, RunReport};
use mdo_core::{Ctr, SimEngine};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::{Dur, FlowConfig, OverloadPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TICK: EntryId = EntryId(50);
const DATA: EntryId = EntryId(51);

const PAYLOAD: usize = 1024;
const TICK_PERIOD: Dur = Dur::from_micros(1000);
const DRAIN_COST: Dur = Dur::from_micros(100);
/// Envelopes the consumer can drain per second — the hard capacity.
const CAPACITY_PER_S: u64 = 1_000_000 / 100;
/// Sized just above the credit loop's bandwidth-delay product at
/// capacity (10.5 MB/s x 2 ms one-way ~ 21 KiB), so below capacity the
/// window never binds and past capacity the consumer is the bottleneck.
const WINDOW: u64 = 32 * 1024;

/// Element 0 (cluster A): the open-loop driver — `per_tick` envelopes
/// every millisecond, paced by charging its own PE, never by feedback
/// from the receiver.  Element 1 (cluster B): the bounded drain.
struct Overload {
    ticks_left: u32,
    per_tick: u32,
    received: Arc<AtomicU64>,
}

impl Chare for Overload {
    fn receive(&mut self, entry: EntryId, _p: &[u8], ctx: &mut Ctx<'_>) {
        match entry {
            TICK => {
                ctx.charge(TICK_PERIOD);
                for _ in 0..self.per_tick {
                    ctx.send(ctx.me().array, ElemId(1), DATA, vec![0u8; PAYLOAD]);
                }
                if self.ticks_left > 0 {
                    self.ticks_left -= 1;
                    ctx.send(ctx.me().array, ElemId(0), TICK, vec![]);
                }
            }
            DATA => {
                self.received.fetch_add(1, Ordering::SeqCst);
                ctx.charge(DRAIN_COST);
            }
            _ => unreachable!(),
        }
    }
}

struct Outcome {
    sent: u64,
    delivered: u64,
    report: RunReport,
}

fn run(ticks: u32, per_tick: u32, flow: Option<FlowConfig>) -> Outcome {
    let received = Arc::new(AtomicU64::new(0));
    let mut p = Program::new();
    let received_f = Arc::clone(&received);
    let per_tick_f = per_tick;
    let arr = p.array("overload", 2, Mapping::Block, move |_| {
        Box::new(Overload { ticks_left: ticks - 1, per_tick: per_tick_f, received: Arc::clone(&received_f) })
            as Box<dyn Chare>
    });
    p.on_startup(move |ctl| ctl.send(arr, ElemId(0), TICK, vec![]));
    p.on_quiescence(|ctl| ctl.exit());
    let run_cfg = RunConfig { flow, ..RunConfig::default() };
    let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(2));
    let report = SimEngine::new(net, run_cfg).run(p);
    assert!(report.unrecoverable.is_none());
    assert!(report.transport_error.is_none());
    Outcome { sent: u64::from(ticks) * u64::from(per_tick), delivered: received.load(Ordering::SeqCst), report }
}

fn policies() -> [(&'static str, Option<FlowConfig>); 3] {
    let base = FlowConfig::default().with_credit_bytes(WINDOW);
    [("off", None), ("block", Some(base)), ("shed", Some(base.with_policy(OverloadPolicy::Shed)))]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ticks: u32 = arg_value(&args, "--ticks").map(|s| s.parse().expect("--ticks N")).unwrap_or(50);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_overload.json".to_string());
    let csv = arg_flag(&args, "--csv");

    println!("Ablation A12: open-loop overload vs flow-control policy");
    println!(
        "(driver ticks every {} us for {ticks} ticks, {PAYLOAD} B payloads, consumer drains one per {} us \
         -> capacity {CAPACITY_PER_S}/s, credit window {WINDOW} B, 2 PEs across 2 clusters, 2 ms WAN)\n",
        TICK_PERIOD.as_nanos() / 1_000,
        DRAIN_COST.as_nanos() / 1_000
    );

    // Arrival rate as a multiple of drain capacity; per-tick k = multiple
    // x (capacity per tick).  Quarters let us sweep below capacity too.
    let rate_quarters: [u64; 5] = [2, 4, 8, 16, 32]; // 0.5x, 1x, 2x, 4x, 8x
    let per_tick_at = |q: u64| (CAPACITY_PER_S * TICK_PERIOD.as_nanos() / 1_000_000_000 * q / 4) as u32;

    let mut table = Table::new(vec![
        "rate",
        "policy",
        "sent",
        "delivered",
        "shed",
        "makespan ms",
        "goodput /s",
        "peak queue B",
        "stalls",
        "stall ms",
    ]);
    let mut rows_json = Vec::new();
    let mut shed_fraction_prev = f64::INFINITY;
    let mut shed_peak_max = 0u64;
    let mut off_peak_at_8x = 0u64;

    for &q in &rate_quarters {
        let per_tick = per_tick_at(q);
        for (policy, flow) in policies() {
            let out = run(ticks, per_tick, flow);
            let frac = out.delivered as f64 / out.sent as f64;
            let makespan_s = out.report.end_time.as_secs_f64();
            let goodput = out.delivered as f64 / makespan_s;
            let r = &out.report;
            let (sheds, stalls) = (r.counters.get(Ctr::EnvelopesShed), r.counters.get(Ctr::CreditStalls));
            let wait_ms = Dur::from_nanos(r.counters.get(Ctr::CreditWaitNs)).as_secs_f64() * 1e3;

            // The books always balance: delivered + shed = sent.
            assert_eq!(out.delivered + sheds, out.sent, "{policy} @ {q}/4x: accounted");
            match policy {
                "off" => {
                    assert_eq!(sheds, 0);
                    if q == 32 {
                        off_peak_at_8x = r.peak_mailbox_bytes;
                    }
                }
                "block" => {
                    assert_eq!(sheds, 0, "Block never sheds");
                    assert_eq!(out.delivered, out.sent, "Block is lossless at any rate");
                }
                _ => {
                    assert_eq!(stalls, 0, "Shed never stalls");
                    // Graceful degradation: the delivered fraction only
                    // falls as the overcommit grows.
                    assert!(
                        frac <= shed_fraction_prev + 1e-9,
                        "delivered fraction must degrade monotonically: {frac} after {shed_fraction_prev}"
                    );
                    shed_fraction_prev = frac;
                    shed_peak_max = shed_peak_max.max(r.peak_mailbox_bytes);
                }
            }

            table.row(vec![
                format!("{:.2}x", q as f64 / 4.0),
                policy.to_string(),
                out.sent.to_string(),
                out.delivered.to_string(),
                sheds.to_string(),
                ms(out.report.end_time.as_secs_f64() * 1e3),
                format!("{goodput:.0}"),
                r.peak_mailbox_bytes.to_string(),
                stalls.to_string(),
                format!("{wait_ms:.2}"),
            ]);
            rows_json.push(format!(
                "    {{\"rate_multiple\": {:.2}, \"policy\": \"{policy}\", \"sent\": {}, \"delivered\": {}, \
                 \"sheds\": {}, \"shed_bytes\": {}, \"makespan_ms\": {:.3}, \"goodput_per_s\": {goodput:.1}, \
                 \"peak_mailbox_bytes\": {}, \"credit_stalls\": {}, \"credit_wait_ms\": {:.3}}}",
                q as f64 / 4.0,
                out.sent,
                out.delivered,
                sheds,
                r.counters.get(Ctr::ShedBytes),
                makespan_s * 1e3,
                r.peak_mailbox_bytes,
                stalls,
                wait_ms,
            ));
        }
    }

    // Bounded memory under saturation: Shed's worst queue stays within a
    // few windows while the uncontrolled run grows with the overcommit.
    assert!(
        shed_peak_max < 8 * WINDOW,
        "Shed peak queue {shed_peak_max} B must stay near the {WINDOW} B credit window"
    );
    assert!(
        off_peak_at_8x > 4 * shed_peak_max,
        "without flow control the 8x backlog ({off_peak_at_8x} B) dwarfs Shed's bound ({shed_peak_max} B)"
    );

    println!("{}", if csv { table.render_csv() } else { table.render() });
    println!("Shed peak queue at any rate: {shed_peak_max} B (window {WINDOW} B)");
    println!("uncontrolled peak queue at 8x: {off_peak_at_8x} B\n");

    let json = format!(
        "{{\n  \"schema\": 1,\n  \"ticks\": {ticks},\n  \"payload_bytes\": {PAYLOAD},\n  \
         \"capacity_per_s\": {CAPACITY_PER_S},\n  \"credit_window_bytes\": {WINDOW},\n  \
         \"shed_peak_mailbox_bytes\": {shed_peak_max},\n  \"uncontrolled_peak_mailbox_bytes_8x\": {off_peak_at_8x},\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create results directory");
    }
    std::fs::write(&out_path, &json).expect("write results json");
    println!("wrote {out_path}");
}
