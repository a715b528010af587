//! A halo message as the handler that waits on it keeps it.
//!
//! The halo applications — the stencil, its ghost-zone variant, Jacobi3D
//! and the irregular mesh — send each neighbour a fixed header followed by
//! a count-prefixed `f64` array.  A handler checks the message on receipt
//! ([`check`]) and keeps the message itself, the `Bytes` it was delivered
//! (a reference count, not a parsed copy), until the step that applies it
//! reads the values in place ([`values`]).  In cost-model mode that step
//! reads no halo value, so the handler keeps only the fact of arrival
//! ([`keep`]): an empty `Bytes`, no allocation.

use std::fmt;

use bytes::Bytes;
use mdo_core::chare::Ctx;
use mdo_core::prelude::WireReader;
use mdo_core::wire::f64_array_len;

/// Check that `payload` is a `header`-byte header and exactly `n` values,
/// so a short or long halo fails on receipt, in both modes, and not at the
/// step that applies it.  `what` names the message in the panic.
pub(crate) fn check(payload: &[u8], header: usize, n: usize, what: fmt::Arguments<'_>) {
    let count = payload.get(header..header + 4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
    assert!(
        count == Some(n as u32) && payload.len() == header + f64_array_len(n),
        "{what}: wrong length, {} B where {n} values take {} B",
        payload.len(),
        header + f64_array_len(n)
    );
}

/// What a handler keeps of the halo it was just delivered: the message
/// when the step will read it, else an empty `Bytes` that records arrival.
pub(crate) fn keep(ctx: &Ctx<'_>, compute: bool) -> Bytes {
    if compute {
        ctx.payload().clone()
    } else {
        Bytes::new()
    }
}

/// The values of a kept halo, read in place.
pub(crate) fn values(msg: &[u8], header: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
    WireReader::new(&msg[header..]).f64_iter().expect("halo values, checked on receipt")
}

/// One step's halos, a slot per neighbour direction (`N` ≤ 8): each the
/// message as [`keep`] kept it.  Arrival is recorded apart from the
/// message, because in cost-model mode every kept message is the same
/// empty buffer.
pub(crate) struct Slots<const N: usize> {
    msgs: [Bytes; N],
    arrived: u8,
}

impl<const N: usize> Default for Slots<N> {
    fn default() -> Self {
        Slots { msgs: std::array::from_fn(|_| Bytes::new()), arrived: 0 }
    }
}

impl<const N: usize> Slots<N> {
    /// Keep `msg` in `slot`; false (and nothing kept) if the slot is full.
    pub(crate) fn put(&mut self, slot: usize, msg: Bytes) -> bool {
        let bit = 1u8 << slot;
        if self.arrived & bit != 0 {
            return false;
        }
        self.arrived |= bit;
        self.msgs[slot] = msg;
        true
    }

    /// Slots filled.
    pub(crate) fn len(&self) -> usize {
        self.arrived.count_ones() as usize
    }

    /// True if no slot is filled.
    pub(crate) fn is_empty(&self) -> bool {
        self.arrived == 0
    }

    /// Empty every slot, handing each kept message to `apply` in slot order.
    pub(crate) fn drain(&mut self, mut apply: impl FnMut(usize, Bytes)) {
        for slot in (0..N).filter(|&slot| self.arrived & (1 << slot) != 0) {
            apply(slot, std::mem::take(&mut self.msgs[slot]));
        }
        self.arrived = 0;
    }
}

/// Hand one message to a handler the way a PE's runtime does, with no
/// engine around it, so that the handler's panic reaches the test (an
/// engine turns it into a failed PE).
#[cfg(test)]
pub(crate) fn deliver(program: mdo_core::Program, to: mdo_core::ElemId, entry: mdo_core::EntryId, payload: Vec<u8>) {
    use mdo_core::envelope::{Envelope, MsgBody, APP_PRIORITY};
    use mdo_core::node::{split_program, HostParts, Node, NodeHooks};
    use mdo_core::{ArrayId, ObjKey, Pe, RunConfig, Time, Topology};
    use mdo_netsim::Dur;

    struct Hooks;
    impl NodeHooks for Hooks {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn emit(&mut self, _env: Envelope, _after: Dur) {}
    }

    let (shared, _host) = split_program(program, Topology::single(1), RunConfig::default());
    let mut node = Node::new(shared, Pe(0), HostParts::empty());
    let target = ObjKey::new(ArrayId(0), to);
    let body = MsgBody::App { target, entry, payload: payload.into() };
    node.handle(Envelope { src: Pe(0), dst: Pe(0), priority: APP_PRIORITY, sent_at_ns: 0, body }, &mut Hooks);
}
