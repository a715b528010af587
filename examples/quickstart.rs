//! Quickstart: your first message-driven Grid program.
//!
//! We build the smallest possible demonstration of the paper's idea:
//! a coordinator waits on a slow cross-cluster round trip to two "remote"
//! objects while slices of local work keep its processor busy — so the
//! wide-area latency costs (almost) nothing.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gridmdo::prelude::*;
use gridmdo::runtime::chare::Chare;
use gridmdo::runtime::ids::{ElemId, EntryId};

// Entry methods are plain numbers; name them for readability.
const ASK: EntryId = EntryId(1); // ask the remote responder for a result
const REPLY: EntryId = EntryId(2); // the responder's answer
const CHURN: EntryId = EntryId(3); // a slice of local work

/// Every element of our array runs this object.  Element 0 is the
/// "coordinator" (it asks and churns); the two elements on the other
/// cluster are the responders; element 1 is idle.
struct Worker {
    churn_left: u32,
    replies_left: u32,
}

/// The question both responders are asked.
const QUESTION: &[u8] = b"what is the one-way latency?";

impl Chare for Worker {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        let arr = ctx.me().array;
        match entry {
            ASK => {
                // We are a responder, on the other cluster: compute a
                // little and answer.  (charge() is the virtual compute
                // cost accounted by the simulation engine.)  `payload` is
                // a view of `ctx.payload()`, the message's refcounted
                // buffer; a handler that had to hold on to the question
                // would keep `ctx.payload().clone()`, not a copy.
                assert_eq!(payload, QUESTION);
                ctx.charge(Dur::from_millis(1));
                ctx.send(arr, ElemId(0), REPLY, vec![]);
            }
            REPLY => {
                self.replies_left -= 1;
                println!("  reply arrived at t = {:.1} ms (one-way latency was 25 ms)", ctx.now().as_millis_f64());
                if self.replies_left == 0 && self.churn_left == 0 {
                    ctx.exit();
                }
            }
            CHURN => {
                // A slice of local work; message-driven execution means
                // this runs *while* the ASK/REPLY round trip is in flight.
                ctx.charge(Dur::from_millis(5));
                self.churn_left -= 1;
                if self.churn_left > 0 {
                    ctx.send(arr, ElemId(0), CHURN, vec![]);
                } else if self.replies_left == 0 {
                    ctx.exit();
                }
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }
}

fn main() {
    // A Grid of 2 PEs: PE 0 in cluster "A", PE 1 in cluster "B", with a
    // 25 ms one-way wide-area latency between them (the delay device).
    let net = NetworkModel::two_cluster_sweep(2, Dur::from_millis(25));

    // The program: 4 objects, block-mapped (elements 0 and 1 -> PE 0 in
    // cluster A, elements 2 and 3 -> PE 1 in cluster B).
    let mut program = Program::new();
    let responders = [ElemId(2), ElemId(3)];
    let arr = program.array("workers", 4, Mapping::Block, move |_elem| {
        Box::new(Worker { churn_left: 10, replies_left: 2 }) as Box<dyn Chare>
    });

    // Startup: fire the cross-cluster requests AND the local churn.
    program.on_startup(move |ctl| {
        // One question, two recipients: build the buffer once and give
        // each send a clone — a reference count.  (A `Vec<u8>` works too
        // and becomes the buffer without a copy; cloning the `Vec` per
        // recipient would copy it.)
        let question = Bytes::from(QUESTION.to_vec());
        for responder in responders {
            ctl.send(arr, responder, ASK, question.clone());
        }
        ctl.send(arr, ElemId(0), CHURN, vec![]);
    });

    println!("quickstart: 50 ms of round-trip latency vs 50 ms of local work\n");
    let report = SimEngine::new(net, RunConfig::default()).run(program);

    let total = report.end_time.as_millis_f64();
    println!("\n  total run time      : {total:.1} ms");
    println!("  PE 0 busy           : {:.1} ms", report.pe_busy[0].as_millis_f64());
    println!("  messages cross WAN  : {}", report.network.cross_messages);
    println!(
        "\nThe naive (blocking) schedule would need ~50 ms latency + 52 ms work\n\
         = 102 ms; the message-driven scheduler overlapped them into {total:.1} ms."
    );
    assert!(total < 75.0, "overlap must beat the blocking schedule");
}
