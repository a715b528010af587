//! Figure 2: the hypothetical latency-masking timeline, made real.
//!
//! The paper's Figure 2 sketches three processors on two clusters:
//! B sends a request to C across the wide area, and *"rather than waiting
//! idly for this message to be delivered, B is free to respond to an
//! incoming message from processor A, and in fact performs several short
//! computations and message exchanges with A"* until C's reply lands.
//!
//! This scripts exactly that interaction as three chares on a
//! 2+1-PE topology, records the observability event stream in the
//! simulation engine, and renders the ASCII timeline derived from it:
//! B's row should be solid with work during the round-trip gap, where
//! without A's traffic it would sit idle.  The same stream
//! yields the overlap numbers printed below the timeline — how much of
//! the WAN round trip B actually masked.

use mdo_core::chare::{Chare, Ctx};
use mdo_core::ids::{ElemId, EntryId};
use mdo_core::prelude::*;
use mdo_core::SimEngine;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::topology::ClusterSpec;
use mdo_netsim::{Dur, LatencyMatrix, WanContention};

use crate::recorded;

const START: EntryId = EntryId(1);
const REQUEST: EntryId = EntryId(2);
const RESPONSE: EntryId = EntryId(3);
const LOCAL_PING: EntryId = EntryId(4);
const LOCAL_PONG: EntryId = EntryId(5);

const A: ElemId = ElemId(0);
const B: ElemId = ElemId(1);
const C: ElemId = ElemId(2);

struct Actor {
    exchanges_left: u32,
    got_response: bool,
}

impl Actor {
    fn maybe_finish(&self, ctx: &mut Ctx<'_>) {
        if self.got_response && self.exchanges_left == 0 {
            ctx.exit();
        }
    }
}

impl Chare for Actor {
    fn receive(&mut self, entry: EntryId, _payload: &[u8], ctx: &mut Ctx<'_>) {
        let arr = ctx.me().array;
        match entry {
            START => {
                // Only B acts on START: fire the cross-cluster request,
                // then start chatting with A.
                ctx.charge(Dur::from_millis(1));
                ctx.send(arr, C, REQUEST, vec![]);
                ctx.send(arr, A, LOCAL_PING, vec![]);
            }
            REQUEST => {
                // C: compute the requested result, reply across the WAN.
                ctx.charge(Dur::from_millis(4));
                ctx.send(arr, B, RESPONSE, vec![]);
            }
            RESPONSE => {
                // B: the long-awaited reply.
                ctx.charge(Dur::from_millis(1));
                self.got_response = true;
                self.maybe_finish(ctx);
            }
            LOCAL_PING => {
                // A: short computation, answer B.
                ctx.charge(Dur::from_millis(2));
                ctx.send(arr, B, LOCAL_PONG, vec![]);
            }
            LOCAL_PONG => {
                // B: short computation, maybe another exchange with A.
                ctx.charge(Dur::from_millis(2));
                if self.exchanges_left > 0 {
                    self.exchanges_left -= 1;
                    if self.exchanges_left > 0 {
                        ctx.send(arr, A, LOCAL_PING, vec![]);
                    }
                }
                self.maybe_finish(ctx);
            }
            other => panic!("unknown entry {other:?}"),
        }
    }
}

/// The timeline and B's overlap.
pub fn generate() -> Vec<String> {
    let latency_ms = 16;
    // Processors A and B on cluster one, C on cluster two (Figure 2).
    let topo =
        Topology::new(vec![ClusterSpec { name: "one".into(), pes: 2 }, ClusterSpec { name: "two".into(), pes: 1 }]);
    let latency = LatencyMatrix::uniform(&topo, Dur::from_micros(10), Dur::from_millis(latency_ms));
    let contention = WanContention::disabled(&topo);
    let net = NetworkModel::new(topo, latency, contention, 0);

    let mut program = Program::new();
    let arr = program.array("actors", 3, Mapping::RoundRobin, |_| {
        Box::new(Actor { exchanges_left: 6, got_response: false }) as Box<dyn Chare>
    });
    program.on_startup(move |ctl| ctl.send(arr, B, START, vec![]));

    let report = SimEngine::new(net, recorded()).run(program);
    let obs = report.obs.as_ref().expect("observability armed");
    let trace = obs.to_trace();

    let mut out = String::new();
    outln!(out, "Figure 2 timeline: one-way WAN latency {latency_ms} ms, B<->C round trip in flight");
    outln!(out, "local A<->B exchanges during the gap: ENABLED (message-driven overlap)\n");
    outln!(out, "(pe0 = A, pe1 = B, pe2 = C; '#' = executing, '.' = idle)\n");
    out.push_str(&trace.ascii_timeline(3, 72));
    outln!(
        out,
        "\nend-to-end: {:.3} ms; B busy {:.3} ms ({:.1}% of the run)",
        report.end_time.as_millis_f64(),
        trace.busy(Pe(1)).as_millis_f64(),
        100.0 * trace.utilization(Pe(1)),
    );
    let b = obs.overlap_for(Pe(1));
    outln!(
        out,
        "B's WAN wait: {:.3} ms outstanding, {:.3} ms masked by local work, {:.3} ms exposed ({:.0}% overlap)",
        b.outstanding.as_millis_f64(),
        b.masked.as_millis_f64(),
        b.exposed.as_millis_f64(),
        100.0 * b.fraction(),
    );
    vec![out]
}
