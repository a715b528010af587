//! The rank handle and its awaitable receive.
//!
//! A [`Rank`] is the capability object an AMPI task closes over.  All of
//! its operations funnel through a shared mailbox/outbox cell that the
//! owning chare drains after each poll:
//!
//! * `send` is eager and non-blocking (buffered into the outbox), and a
//!   collective the rank enters is buffered alongside it;
//! * `recv` is an `await` on [`RecvFuture`], which scans the unexpected-
//!   message queue for a `(source, tag)` match and suspends otherwise;
//! * `charge` accumulates virtual compute cost exactly like
//!   [`mdo_core::chare::Ctx::charge`].
//!
//! **Executor invariant:** rank futures are polled when (and only when) a
//! message for the rank arrives, so a rank future must only suspend on
//! AMPI futures — never on external timers or I/O.  All combinators in
//! [`crate::collectives`] respect this.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use mdo_netsim::{Dur, Time};
use parking_lot::Mutex;

use crate::collectives::Collective;

/// A received message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: u32,
    /// Message tag.
    pub tag: i32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// State shared between a rank's future and its owning chare.
#[derive(Debug, Default)]
pub(crate) struct RankShared {
    pub rank: u32,
    pub n_ranks: u32,
    /// Unexpected-message queue, in arrival order.
    pub inbox: Vec<Msg>,
    /// Messages the rank has issued since the last drain: (dst, tag, data,
    /// `charges` when it was issued).
    pub outbox: Vec<(u32, i32, Vec<u8>, Dur)>,
    /// Compute cost accumulated since the last drain.
    pub charges: Dur,
    /// Wall/virtual nanoseconds at the last poll (set by the chare).
    pub now_ns: u64,
    /// Cluster index of the PE currently running this rank.
    pub my_cluster: u16,
    /// Collective-call counter (all ranks call collectives in the same
    /// order, so equal counters identify the same collective).
    pub collective_seq: u32,
    /// Collectives the rank has entered since the last drain.
    pub collectives: Vec<Collective>,
    /// Reductions the rank has entered: its next contribution joins the
    /// rank array's reduction of this number.
    pub reductions: u32,
}

/// The capability handle held inside a rank's async body.
#[derive(Clone)]
pub struct Rank {
    pub(crate) shared: Arc<Mutex<RankShared>>,
}

impl Rank {
    pub(crate) fn new(rank: u32, n_ranks: u32) -> Self {
        Rank { shared: Arc::new(Mutex::new(RankShared { rank, n_ranks, ..RankShared::default() })) }
    }

    /// This rank's index (0-based).
    pub fn rank(&self) -> u32 {
        self.shared.lock().rank
    }

    /// Total ranks in the job (MPI_COMM_WORLD size).
    pub fn size(&self) -> u32 {
        self.shared.lock().n_ranks
    }

    /// The time at the last suspension point (virtual under the sim
    /// engine, wall-clock under the threaded engine).
    pub fn now(&self) -> Time {
        Time::from_nanos(self.shared.lock().now_ns)
    }

    /// Cluster currently hosting this rank (for diagnostics).
    pub fn my_cluster(&self) -> u16 {
        self.shared.lock().my_cluster
    }

    /// Non-blocking, buffered send (MPI_Send with eager semantics).
    /// User tags must be non-negative; negative tags are reserved for
    /// collectives.
    pub fn send(&self, dst: u32, tag: i32, data: Vec<u8>) {
        assert!(tag >= 0, "negative tags are reserved for collectives");
        self.send_internal(dst, tag, data);
    }

    pub(crate) fn send_internal(&self, dst: u32, tag: i32, data: Vec<u8>) {
        let mut s = self.shared.lock();
        assert!(dst < s.n_ranks, "send to rank {dst} out of range (size {})", s.n_ranks);
        let at = s.charges;
        s.outbox.push((dst, tag, data, at));
    }

    /// Await a message matching `src` and `tag` (None = wildcard, i.e.
    /// MPI_ANY_SOURCE / MPI_ANY_TAG).  Matches the earliest-arrived
    /// message, per MPI ordering rules.
    pub fn recv(&self, src: Option<u32>, tag: Option<i32>) -> RecvFuture {
        RecvFuture { shared: Arc::clone(&self.shared), src, tag }
    }

    /// Await a message from exactly `src` with exactly `tag`; returns the
    /// payload only.
    pub async fn recv_from(&self, src: u32, tag: i32) -> Vec<u8> {
        self.recv(Some(src), Some(tag)).await.data
    }

    /// Non-blocking receive (MPI_Iprobe + Recv): take a matching message
    /// if one has already arrived, without suspending.
    pub fn try_recv(&self, src: Option<u32>, tag: Option<i32>) -> Option<Msg> {
        let mut s = self.shared.lock();
        let pos = s.inbox.iter().position(|m| src.is_none_or(|w| w == m.src) && tag.is_none_or(|w| w == m.tag));
        pos.map(|i| s.inbox.remove(i))
    }

    /// Charge virtual compute cost (see [`mdo_core::chare::Ctx::charge`]).
    pub fn charge(&self, work: Dur) {
        self.shared.lock().charges += work;
    }

    /// Allocate the next collective sequence number (crate-internal).
    pub(crate) fn bump_collective_seq(&self) -> u32 {
        let mut s = self.shared.lock();
        let seq = s.collective_seq;
        s.collective_seq = s.collective_seq.wrapping_add(1);
        seq
    }
}

/// The awaitable returned by [`Rank::recv`].
pub struct RecvFuture {
    shared: Arc<Mutex<RankShared>>,
    src: Option<u32>,
    tag: Option<i32>,
}

impl Future for RecvFuture {
    type Output = Msg;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Msg> {
        let mut s = self.shared.lock();
        let pos =
            s.inbox.iter().position(|m| self.src.is_none_or(|w| w == m.src) && self.tag.is_none_or(|w| w == m.tag));
        match pos {
            Some(i) => Poll::Ready(s.inbox.remove(i)),
            None => Poll::Pending,
        }
    }
}

/// A no-op waker: rank futures are re-polled by the owning chare on every
/// message arrival, so wakers carry no information here.
pub(crate) fn noop_waker() -> std::task::Waker {
    use std::task::{RawWaker, RawWakerVTable, Waker};
    fn clone(_: *const ()) -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    // SAFETY: all vtable functions are no-ops over a null pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn send_buffers_into_outbox() {
        let rank = Rank::new(2, 8);
        rank.send(3, 7, vec![1, 2]);
        rank.send(0, 0, vec![]);
        let s = rank.shared.lock();
        assert_eq!(s.outbox.len(), 2);
        assert_eq!(s.outbox[0], (3, 7, vec![1, 2], Dur::ZERO));
    }

    #[test]
    #[should_panic(expected = "reserved for collectives")]
    fn negative_user_tags_rejected() {
        Rank::new(0, 2).send(1, -1, vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_rejected() {
        Rank::new(0, 2).send(2, 0, vec![]);
    }

    #[test]
    fn recv_matches_src_and_tag() {
        let rank = Rank::new(0, 4);
        rank.shared.lock().inbox.push(Msg { src: 1, tag: 5, data: vec![10] });
        rank.shared.lock().inbox.push(Msg { src: 2, tag: 5, data: vec![20] });

        let mut wrong = rank.recv(Some(3), None);
        assert!(poll_once(&mut wrong).is_pending());

        let mut by_src = rank.recv(Some(2), None);
        match poll_once(&mut by_src) {
            Poll::Ready(m) => assert_eq!(m.data, vec![20]),
            Poll::Pending => panic!("should match"),
        }

        let mut any = rank.recv(None, None);
        match poll_once(&mut any) {
            Poll::Ready(m) => assert_eq!(m.src, 1, "earliest arrival wins"),
            Poll::Pending => panic!("should match"),
        }
        assert!(rank.shared.lock().inbox.is_empty());
    }

    #[test]
    fn recv_matches_in_arrival_order_for_same_source() {
        let rank = Rank::new(0, 2);
        rank.shared.lock().inbox.push(Msg { src: 1, tag: 0, data: vec![1] });
        rank.shared.lock().inbox.push(Msg { src: 1, tag: 0, data: vec![2] });
        let mut f1 = rank.recv(Some(1), Some(0));
        let mut f2 = rank.recv(Some(1), Some(0));
        match (poll_once(&mut f1), poll_once(&mut f2)) {
            (Poll::Ready(a), Poll::Ready(b)) => {
                assert_eq!(a.data, vec![1]);
                assert_eq!(b.data, vec![2]);
            }
            _ => panic!("both should match"),
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let rank = Rank::new(0, 2);
        assert!(rank.try_recv(None, None).is_none(), "empty inbox");
        rank.shared.lock().inbox.push(Msg { src: 1, tag: 4, data: vec![9] });
        assert!(rank.try_recv(Some(1), Some(5)).is_none(), "tag mismatch leaves it");
        let got = rank.try_recv(Some(1), Some(4)).expect("match");
        assert_eq!(got.data, vec![9]);
        assert!(rank.try_recv(None, None).is_none(), "consumed");
    }

    #[test]
    fn charges_accumulate() {
        let rank = Rank::new(0, 1);
        rank.charge(Dur::from_micros(5));
        rank.charge(Dur::from_micros(7));
        assert_eq!(rank.shared.lock().charges, Dur::from_micros(12));
    }

    #[test]
    fn metadata_accessors() {
        let rank = Rank::new(3, 9);
        assert_eq!(rank.rank(), 3);
        assert_eq!(rank.size(), 9);
        rank.shared.lock().now_ns = 77;
        rank.shared.lock().my_cluster = 1;
        assert_eq!(rank.now(), Time::from_nanos(77));
        assert_eq!(rank.my_cluster(), 1);
    }
}
