//! Payload ownership (DESIGN.md, "Payload ownership"): a message is one
//! allocation from the handler that writes it to the handlers that read it.
//!
//! `Ctx::send` / `broadcast` / `multicast` take anything that becomes a
//! `Bytes`; a fan-out of clones shares the sender's buffer; and
//! `Ctx::payload()` is the message being delivered, so a handler can keep
//! it with a reference count.  Checked here on the simulation engine, where
//! "the same buffer" is observable as the same address; the TCP record case
//! is in `tests/net_transport.rs`, the forwarded-message case beside
//! `Node::deliver_app`.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use gridmdo::netsim::network::NetworkModel;
use gridmdo::prelude::*;

const START: EntryId = EntryId(1);
const BY_SEND: EntryId = EntryId(2);
const BY_BROADCAST: EntryId = EntryId(3);
const BY_MULTICAST: EntryId = EntryId(4);

const ELEMS: u32 = 12;

/// What one recipient saw of one message.
struct Seen {
    entry: EntryId,
    pe: Pe,
    at: usize,
    bytes: Vec<u8>,
}

#[derive(Default)]
struct Log {
    /// Where the sender's buffer lives, and on which PE the sender ran.
    sent: Option<(usize, Pe)>,
    seen: Vec<Seen>,
}

struct Fan {
    log: Arc<Mutex<Log>>,
    got: u32,
}

fn body() -> Vec<u8> {
    (0..200u8).collect()
}

impl Chare for Fan {
    fn receive(&mut self, entry: EntryId, payload: &[u8], ctx: &mut Ctx<'_>) {
        // Whatever brought the message here, the slice is a view of it.
        assert_eq!(ctx.payload().as_ptr(), payload.as_ptr());
        assert_eq!(ctx.payload().len(), payload.len());
        if entry == START {
            assert!(payload.is_empty());
            let arr = ctx.me().array;
            let all: Vec<ElemId> = (0..ELEMS).map(ElemId).collect();
            let shared = Bytes::from(body());
            self.log.lock().unwrap().sent = Some((shared.as_ptr() as usize, ctx.my_pe()));
            for &elem in &all {
                ctx.send(arr, elem, BY_SEND, shared.clone());
            }
            ctx.broadcast(arr, BY_BROADCAST, shared.clone());
            ctx.multicast(arr, &all, BY_MULTICAST, shared);
            return;
        }
        let kept = ctx.payload().clone();
        self.log.lock().unwrap().seen.push(Seen {
            entry,
            pe: ctx.my_pe(),
            at: kept.as_ptr() as usize,
            bytes: kept.to_vec(),
        });
        self.got += 1;
        if self.got == 3 {
            ctx.contribute_u64_sum(&[1]);
        }
    }
}

#[test]
fn one_fan_out_is_one_buffer() {
    let log = Arc::new(Mutex::new(Log::default()));
    let mut p = Program::new();
    let log_f = Arc::clone(&log);
    let arr = p.array("fan", ELEMS as usize, Mapping::RoundRobin, move |_| {
        Box::new(Fan { log: Arc::clone(&log_f), got: 0 }) as Box<dyn Chare>
    });
    p.on_startup(move |ctl| {
        assert!(ctl.payload().is_empty(), "no message is being delivered to a host callback");
        ctl.send(arr, ElemId(0), START, vec![]);
    });
    p.on_reduction(arr, |_seq, _data, ctl| {
        assert!(ctl.payload().is_empty());
        ctl.exit();
    });
    let net = NetworkModel::two_cluster_sweep(4, Dur::from_millis(2));
    SimEngine::new(net, RunConfig::default()).run(p);

    let log = log.lock().unwrap();
    let (sent_at, sender_pe) = log.sent.expect("element 0 fanned out");
    for entry in [BY_SEND, BY_BROADCAST, BY_MULTICAST] {
        let seen: Vec<&Seen> = log.seen.iter().filter(|s| s.entry == entry).collect();
        assert_eq!(seen.len(), ELEMS as usize, "{entry:?} reached every element once");
        let local = seen.iter().filter(|s| s.pe == sender_pe).count();
        assert_eq!(local, ELEMS as usize / 4, "round-robin over 4 PEs");
        for s in seen {
            assert_eq!(s.bytes, body(), "{entry:?}: every recipient reads the sender's bytes");
            if s.pe == sender_pe {
                assert_eq!(s.at, sent_at, "{entry:?}: recipients on the sender's PE read the sender's allocation");
            }
        }
    }
}
