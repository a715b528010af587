//! The live TCP mesh: one connection per pair of node processes.
//!
//! One [`NetSession`] per process holds the listening socket named in the
//! manifest; [`NetSession::establish`] builds a [`NetMesh`] for one run
//! generation — the full set of pairwise connections, handshaken and
//! validated.  Rendezvous is deterministic: for every pair the higher
//! node id dials the lower, one socket per pair, used bidirectionally
//! with `TCP_NODELAY` set.  One socket is also what keeps a pair's
//! records in the order they were written, which [`Wire`] requires.
//!
//! The mesh implements [`Wire`]: outbound packets are framed as data
//! records on the pair's stream.  The stream has one cork buffer under
//! its write lock: a record is encoded once, straight into it, and the
//! buffer leaves in one `write` — at once for
//! [`Wire::send`] (taking along whatever was corked ahead of it), at the
//! next [`Wire::flush`] or at [`CORK_MAX_BYTES`] for
//! [`Wire::send_corked`].  Who corks and when to flush is decided above
//! the seam (`mdo_vmi::wire`); should a promised flush never come, the
//! pair's own reader writes the abandoned cork within two of its ticks.  A
//! control record goes through the same buffer, so it never overtakes
//! data corked before it — and, written before a close, it is read before
//! the EOF that reports the peer down.  Inbound, one reader thread per
//! peer decodes records and posts packets
//! straight into the destination PE's landing mailbox (the `deliver`
//! callback given to [`NetMesh::start`]), so the reliable layer and the
//! aggregator above the seam see exactly the bytes they would have seen
//! in one process; a record's `due` was written on this node's clock (the
//! handshake measured how far apart the two run) and that mailbox
//! enforces it.  Control records
//! (opaque to this crate) and peer-death evidence surface through the
//! [`NetEvent`] queue.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdo_netsim::Topology;
use mdo_vmi::{Packet, Wire};
use parking_lot::Mutex;

use crate::config::NetConfig;
use crate::error::HandshakeField;
use crate::error::TransportError;
use crate::record::{
    decode_control_body, decode_data_body, encode_control_record, encode_data_record, read_record, unwords, words,
    Clock, ClockEstimate, Handshake, RecordError, CLOCK_PINGS, CLOCK_PING_LEN, CLOCK_PONG_LEN, HANDSHAKE_LEN,
    KIND_CONTROL, KIND_DATA, RECORD_HEADER_LEN,
};

/// A cork buffer is written once it holds this much, flush or no flush.
/// One loopback or Ethernet `write` of 64 KiB already amortises the system
/// call and the peer's wake-up over hundreds of small records, bulk
/// payloads keep streaming while their sender is still producing, and the
/// memory a pair can pin stays bounded.
pub const CORK_MAX_BYTES: usize = 64 << 10;

/// How often a pair's reader looks at the pair's cork buffer: its read
/// half times out after this long, and a read that returns a tick after
/// the last look looks too, so a peer that never falls silent cannot
/// postpone the look.  `send_corked` takes its caller's word that a flush
/// will follow; a cork that sits through two looks with no write in
/// between has been abandoned (its sender stopped polling without a last
/// flush) and is written for it, so a broken promise costs 10–20 ms, never
/// a hang.  Long against every flush the transport does itself
/// (sub-millisecond), so in a healthy run the reader only ever looks.
const CORK_RESCUE_TICK: Duration = Duration::from_millis(10);

/// An asynchronous mesh notification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A control-plane message from a peer (payload is caller-defined).
    Control {
        /// Sending node.
        from: u32,
        /// Opaque payload.
        bytes: Vec<u8>,
    },
    /// A peer's socket closed or broke while the mesh was up — evidence
    /// of node death (or of a peer finishing without the control-plane
    /// goodbye).  Emitted at most once per peer per mesh.
    PeerDown {
        /// The node whose connection went away.
        node: u32,
    },
}

/// Fault-injection hook applied to outgoing data-record bodies: given the
/// running record index and the encoded body, optionally replace it.
/// Used by tests to model a corrupting network segment beneath the
/// reliable layer.
pub type FaultHook = Box<dyn Fn(u64, &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// The write half of a pair's socket and its cork buffer.
struct StreamOut {
    sock: TcpStream,
    /// Whole encoded records not yet written.
    cork: Vec<u8>,
}

struct Pair {
    /// The peer's clock against this node's, as the handshake measured it:
    /// what puts a packet's `due` on the clock that will enforce it.
    clock: ClockEstimate,
    /// Records are appended and written under this lock, so concurrent
    /// senders never interleave.
    out: Mutex<StreamOut>,
    /// Hint that the cork buffer is non-empty, so a flush with nothing
    /// corked takes no lock.  Written under the `out` lock.
    corked: AtomicBool,
    /// Set by the pair's reader when it sees the pair corked, cleared by
    /// every write.  Still set at its next look: abandoned.
    unclaimed: AtomicBool,
    /// The read half, until [`NetMesh::start`] hands it to the reader.
    reader: Mutex<Option<TcpStream>>,
}

impl Pair {
    /// Write the cork buffer out (`w` is the locked write half) — the data
    /// path's only `write`.
    fn flush(&self, w: &mut StreamOut) -> std::io::Result<()> {
        self.corked.store(false, Ordering::Release);
        self.unclaimed.store(false, Ordering::Release);
        let res = w.sock.write_all(&w.cork);
        w.cork.clear();
        // One outsized record must not pin its buffer for the whole run.
        if w.cork.capacity() > 4 * CORK_MAX_BYTES {
            w.cork = Vec::new();
        }
        res
    }
}

/// One generation's fully-connected, handshaken TCP mesh.
pub struct NetMesh {
    node: u32,
    clock: Clock,
    node_of_pe: Vec<u32>,
    pairs: Vec<Option<Pair>>,
    events_tx: mpsc::Sender<NetEvent>,
    events_rx: Mutex<mpsc::Receiver<NetEvent>>,
    drops: AtomicU64,
    data_sent: AtomicU64,
    closing: AtomicBool,
    down: Vec<AtomicBool>,
    reader_handles: Mutex<Vec<JoinHandle<()>>>,
    fault_hook: Mutex<Option<FaultHook>>,
    /// True while a fault hook is installed; the send path looks at the
    /// hook's lock only then.
    fault_hook_set: AtomicBool,
}

impl std::fmt::Debug for NetMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetMesh")
            .field("node", &self.node)
            .field("peers", &self.pairs.iter().filter(|p| p.is_some()).count())
            .finish_non_exhaustive()
    }
}

/// A process's listening endpoint, reusable across run generations.
pub struct NetSession {
    cfg: NetConfig,
    listener: TcpListener,
    /// This node's clock for every mesh the session establishes.
    clock: Clock,
}

impl NetSession {
    /// Bind this node's manifest address.
    pub fn bind(cfg: NetConfig) -> Result<Self, TransportError> {
        let addr = *cfg
            .manifest
            .get(cfg.node as usize)
            .ok_or_else(|| TransportError::Malformed { what: format!("node {} not in manifest", cfg.node) })?;
        let listener = TcpListener::bind(addr).map_err(|e| TransportError::io(format!("bind {addr}"), &e))?;
        Self::with_listener(cfg, listener)
    }

    /// Adopt an already-bound listener (tests bind port 0 first, then
    /// build the manifest from the real addresses).
    pub fn with_listener(cfg: NetConfig, listener: TcpListener) -> Result<Self, TransportError> {
        listener.set_nonblocking(true).map_err(|e| TransportError::io("listener nonblocking", &e))?;
        Ok(NetSession { cfg, listener, clock: Clock::start() })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener.local_addr().map_err(|e| TransportError::io("local_addr", &e))
    }

    /// This node's id.
    pub fn node(&self) -> u32 {
        self.cfg.node
    }

    /// The session configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Build the generation-`generation` mesh over the `live` node set:
    /// dial every live node with a lower id, accept from every live node
    /// with a higher id, one socket per pair, and validate every
    /// handshake (version, node, generation, topology digest), which also
    /// measures the peer's clock against this session's.  Bounded by the
    /// config's `connect_timeout`; failures are structured, never a hang.
    pub fn establish(&self, generation: u32, topo: &Topology, live: &[u32]) -> Result<NetMesh, TransportError> {
        let me = self.cfg.node;
        let ours = Handshake { node: me, generation, digest: topo.digest() };
        let deadline = Instant::now() + self.cfg.connect_timeout;
        let n_nodes = self.cfg.manifest.len();
        if let Some(j) = live.iter().find(|&&j| j as usize >= n_nodes) {
            return Err(TransportError::Malformed { what: format!("live node {j} not in manifest") });
        }
        let mut socks: Vec<Option<(TcpStream, ClockEstimate)>> = (0..n_nodes).map(|_| None).collect();

        // Dial lower-numbered peers; their accept loops answer.
        for &j in live.iter().filter(|&&j| j < me) {
            let stream = dial(self.cfg.manifest[j as usize], deadline)?;
            let clock = handshake_dial(&stream, &ours, &self.clock, j, deadline)?;
            socks[j as usize] = Some((stream, clock));
        }

        // Accept from higher-numbered peers; the handshake tells us who.
        let expected = live.iter().filter(|&&j| j > me).count();
        let mut accepted = 0;
        let mut nap = ACCEPT_POLL_FIRST;
        while accepted < expected {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout {
                            what: format!("{} of {} inbound connections at node {me}", expected - accepted, expected),
                        });
                    }
                    back_off(&mut nap, ACCEPT_POLL_CAP);
                    continue;
                }
                Err(e) => return Err(TransportError::io("accept", &e)),
            };
            stream.set_nonblocking(false).map_err(|e| TransportError::io("accepted blocking", &e))?;
            let (peer, clock) = handshake_accept(&stream, &ours, &self.clock, deadline)?;
            if peer.node <= me || !live.contains(&peer.node) {
                return Err(TransportError::HandshakeMismatch {
                    peer: peer.node,
                    field: HandshakeField::Node,
                    expected: me as u64 + 1,
                    got: peer.node as u64,
                });
            }
            // The node id is the peer's word: a second claim to a connected
            // node is refused, never allowed to replace the socket.
            match &mut socks[peer.node as usize] {
                slot @ None => *slot = Some((stream, clock)),
                Some(_) => {
                    let what = format!("second connection claiming node {}", peer.node);
                    return Err(TransportError::Malformed { what });
                }
            }
            accepted += 1;
            nap = ACCEPT_POLL_FIRST;
        }

        // Assemble pairs: split each socket into a locked write half and
        // a reader-owned half.
        let mut pairs: Vec<Option<Pair>> = Vec::with_capacity(n_nodes);
        for sock in socks {
            pairs.push(match sock {
                None => None,
                Some((reader, clock)) => {
                    let sock = reader.try_clone().map_err(|e| TransportError::io("clone", &e))?;
                    Some(Pair {
                        clock,
                        out: Mutex::new(StreamOut { sock, cork: Vec::new() }),
                        corked: AtomicBool::new(false),
                        unclaimed: AtomicBool::new(false),
                        reader: Mutex::new(Some(reader)),
                    })
                }
            });
        }
        let (events_tx, events_rx) = mpsc::channel();
        Ok(NetMesh {
            node: me,
            clock: self.clock,
            node_of_pe: topo.pes().map(|pe| topo.cluster_of(pe).index() as u32).collect(),
            pairs,
            events_tx,
            events_rx: Mutex::new(events_rx),
            drops: AtomicU64::new(0),
            data_sent: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            down: (0..n_nodes).map(|_| AtomicBool::new(false)).collect(),
            reader_handles: Mutex::new(Vec::new()),
            fault_hook: Mutex::new(None),
            fault_hook_set: AtomicBool::new(false),
        })
    }
}

/// First and longest nap of the accept loop's poll of its non-blocking
/// listener.  Peers of one job start within microseconds of each other, so
/// a fixed 5 ms nap *was* the time to establish a mesh; the cap keeps an
/// idle wait as cheap as it was.
const ACCEPT_POLL_FIRST: Duration = Duration::from_micros(50);
const ACCEPT_POLL_CAP: Duration = Duration::from_millis(5);
/// The same for a dial that was refused because the peer has not bound yet.
const DIAL_RETRY_FIRST: Duration = Duration::from_millis(1);
const DIAL_RETRY_CAP: Duration = Duration::from_millis(25);

/// Sleep `nap`, then double it up to `cap`.
fn back_off(nap: &mut Duration, cap: Duration) {
    std::thread::sleep(*nap);
    *nap = (*nap * 2).min(cap);
}

fn dial(addr: SocketAddr, deadline: Instant) -> Result<TcpStream, TransportError> {
    let mut nap = DIAL_RETRY_FIRST;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(TransportError::Timeout { what: format!("connect to {addr}") });
        }
        match TcpStream::connect_timeout(&addr, remaining.min(Duration::from_millis(500))) {
            Ok(s) => return Ok(s),
            // The peer may simply not have bound yet; rendezvous retries.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::TimedOut
                ) =>
            {
                back_off(&mut nap, DIAL_RETRY_CAP);
            }
            Err(e) => return Err(TransportError::io(format!("connect to {addr}"), &e)),
        }
    }
}

fn prep(stream: &TcpStream, deadline: Instant) -> Result<(), TransportError> {
    stream.set_nodelay(true).map_err(|e| TransportError::io("TCP_NODELAY", &e))?;
    let remaining = deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(10));
    stream.set_read_timeout(Some(remaining)).map_err(|e| TransportError::io("read timeout", &e))
}

/// Read exactly `N` handshake bytes, with the failures named.
fn read_fixed<const N: usize>(stream: &TcpStream) -> Result<[u8; N], TransportError> {
    let mut buf = [0u8; N];
    (&mut (&*stream)).read_exact(&mut buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => TransportError::PeerClosed { node: u32::MAX },
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            TransportError::Timeout { what: "peer handshake".into() }
        }
        _ => TransportError::io("read handshake", &e),
    })?;
    Ok(buf)
}

fn write_fixed(stream: &TcpStream, bytes: &[u8]) -> Result<(), TransportError> {
    (&*stream).write_all(bytes).map_err(|e| TransportError::io("send handshake", &e))
}

fn clock_mismatch(peer: u32, expected: u64, got: u64) -> TransportError {
    TransportError::HandshakeMismatch { peer, field: HandshakeField::Clock, expected, got }
}

/// Dial-side handshake: send ours, read the reply, validate fully; then
/// time [`CLOCK_PINGS`] ping-pongs, keep the estimate of the one with the
/// smallest round trip and tell the acceptor, so both ends translate by
/// the same measurement.
fn handshake_dial(
    stream: &TcpStream,
    ours: &Handshake,
    clock: &Clock,
    expect_node: u32,
    deadline: Instant,
) -> Result<ClockEstimate, TransportError> {
    prep(stream, deadline)?;
    write_fixed(stream, &ours.encode())?;
    let peer = Handshake::decode(&read_fixed::<HANDSHAKE_LEN>(stream)?)?;
    peer.check(Some(expect_node), ours.generation, ours.digest)?;
    let mut best: Option<ClockEstimate> = None;
    for _ in 0..CLOCK_PINGS {
        let t1 = clock.now_ns();
        write_fixed(stream, &t1.to_le_bytes())?;
        let (t2, t3) = unwords(&read_fixed(stream)?);
        let sample =
            ClockEstimate::from_sample(t1, t2, t3, clock.now_ns()).ok_or_else(|| clock_mismatch(peer.node, t2, t3))?;
        if best.is_none_or(|b| sample.rtt_ns < b.rtt_ns) {
            best = Some(sample);
        }
    }
    let best = best.expect("at least one ping");
    write_fixed(stream, &best.encode())?;
    stream.set_read_timeout(None).map_err(|e| TransportError::io("clear timeout", &e))?;
    Ok(best)
}

/// Accept-side handshake: read the caller's greeting, reply with ours,
/// then validate.  Replying before validating lets a mismatched peer
/// diagnose the same disagreement symmetrically.  Then answer the dialer's
/// pings and take its estimate, mirrored — once it agrees with what this
/// side saw of the exchange ([`ClockEstimate::check`]).
fn handshake_accept(
    stream: &TcpStream,
    ours: &Handshake,
    clock: &Clock,
    deadline: Instant,
) -> Result<(Handshake, ClockEstimate), TransportError> {
    prep(stream, deadline)?;
    let peer = Handshake::decode(&read_fixed::<HANDSHAKE_LEN>(stream)?)?;
    // The dialer pings only once it has this reply: every transit of the
    // clock exchange lies between here and its last read.
    let started = clock.now_ns();
    write_fixed(stream, &ours.encode())?;
    peer.check(None, ours.generation, ours.digest)?;
    let mut seen_ahead = i128::MAX;
    for _ in 0..CLOCK_PINGS {
        let t1 = u64::from_le_bytes(read_fixed::<CLOCK_PING_LEN>(stream)?);
        let t2 = clock.now_ns();
        seen_ahead = seen_ahead.min(i128::from(t2) - i128::from(t1));
        write_fixed(stream, &words(t2, clock.now_ns()))?;
    }
    let theirs = ClockEstimate::decode(&read_fixed::<CLOCK_PONG_LEN>(stream)?);
    theirs.check(peer.node, seen_ahead, clock.now_ns() - started)?;
    let mine = theirs.mirrored().ok_or_else(|| clock_mismatch(peer.node, seen_ahead as u64, theirs.ahead_ns as u64))?;
    stream.set_read_timeout(None).map_err(|e| TransportError::io("clear timeout", &e))?;
    Ok((peer, mine))
}

impl NetMesh {
    /// This process's node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// What the handshake measured of `node`'s clock against this one's
    /// (`None` for this node itself or one it has no connection to).
    pub fn clock_of(&self, node: u32) -> Option<ClockEstimate> {
        self.pairs.get(node as usize)?.as_ref().map(|p| p.clock)
    }

    /// Spawn one reader thread per peer: every inbound data record is
    /// decoded and handed to `deliver` (which posts it into the destination
    /// PE's landing mailbox); control records and peer-death evidence go to
    /// the event queue.  Each reader is also its pair's cork rescue (see
    /// `CORK_RESCUE_TICK`), so a mesh that is never started never writes a
    /// cork on its own.  Call exactly once per mesh.
    pub fn start(self: &Arc<Self>, deliver: impl Fn(Packet) + Send + Sync + 'static) {
        let deliver = Arc::new(deliver);
        let mut handles = self.reader_handles.lock();
        for (node, pair) in self.pairs.iter().enumerate() {
            let Some(stream) = pair.as_ref().and_then(|p| p.reader.lock().take()) else { continue };
            let mesh = Arc::clone(self);
            let deliver = Arc::clone(&deliver);
            let reader = std::thread::Builder::new().name(format!("mdo-net-r{}-{}", self.node, node));
            handles.push(
                reader.spawn(move || mesh.reader_loop(node as u32, stream, &*deliver)).expect("spawn net reader"),
            );
        }
    }

    fn reader_loop(&self, from_node: u32, stream: TcpStream, deliver: &(dyn Fn(Packet) + Send + Sync)) {
        if stream.set_read_timeout(Some(CORK_RESCUE_TICK)).is_err() {
            self.note_down(from_node);
            return;
        }
        let rescuing = Rescuing { mesh: self, peer: from_node, sock: stream, looked: Instant::now() };
        let mut br = BufReader::with_capacity(64 << 10, rescuing);
        loop {
            match read_record(&mut br) {
                Ok(None) => {
                    self.note_down(from_node);
                    return;
                }
                Ok(Some((KIND_DATA, body))) => match decode_data_body(body, &self.clock, Instant::now()) {
                    Ok(pkt) => deliver(pkt),
                    Err(e) => {
                        // A malformed body poisons only this record: count
                        // the drop and keep reading — the reliable layer's
                        // retransmission replaces the lost packet.
                        self.drops.fetch_add(1, Ordering::Relaxed);
                        if self.drops.load(Ordering::Relaxed) <= 3 {
                            eprintln!(
                                "mdo-net node {}: dropping malformed data record from node {from_node}: {e}",
                                self.node
                            );
                        }
                    }
                },
                Ok(Some((KIND_CONTROL, body))) => match decode_control_body(&body) {
                    Ok((from, bytes)) => {
                        let _ = self.events_tx.send(NetEvent::Control { from, bytes });
                    }
                    Err(_) => {
                        self.drops.fetch_add(1, Ordering::Relaxed);
                    }
                },
                Ok(Some(_)) => unreachable!("read_record rejects unknown kinds"),
                Err(e) => {
                    // Corrupt framing (or a broken socket) poisons the
                    // stream: surface peer death rather than misparse.
                    if !self.closing.load(Ordering::Acquire) && !matches!(e, RecordError::Io(_)) {
                        self.drops.fetch_add(1, Ordering::Relaxed);
                    }
                    self.note_down(from_node);
                    return;
                }
            }
        }
    }

    /// Note that the socket to `node` broke or closed: the peer is down,
    /// reported once, by whichever of its reader or a writer sees it first.
    /// A record the peer wrote before closing was read before the EOF —
    /// one socket, TCP's own ordering — so a final `Done` always wins.
    fn note_down(&self, node: u32) {
        if !self.closing.load(Ordering::Acquire) && !self.down[node as usize].swap(true, Ordering::AcqRel) {
            let _ = self.events_tx.send(NetEvent::PeerDown { node });
        }
    }

    /// Install (or clear) the outgoing-record fault hook.
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        let mut slot = self.fault_hook.lock();
        self.fault_hook_set.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// Encode one packet into the cork buffer of the stream to the node
    /// hosting `pkt.dst` and, unless `cork` holds it back, write that
    /// buffer.  Unknown or already-down destinations drop the packet (the
    /// reliable layer's retransmit-then-error machinery owns that failure).
    fn send_data(&self, pkt: &Packet, cork: bool) {
        let Some(&to) = self.node_of_pe.get(pkt.dst.index()) else {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(pair) = self.pairs.get(to as usize).and_then(|p| p.as_ref()) else {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let idx = self.data_sent.fetch_add(1, Ordering::Relaxed);
        let mut w = pair.out.lock();
        let at = w.cork.len();
        // `due` as the peer's clock counts it, fixed here: whatever the
        // record waits in the cork, the socket and the peer's reader is
        // part of the injected latency, not on top of it.
        let due_ns = pkt.due.map_or(0, |due| pair.clock.on_peer_clock(self.clock.ns_at(due)));
        encode_data_record(pkt, due_ns, &mut w.cork);
        if self.fault_hook_set.load(Ordering::Acquire) {
            self.mangle(idx, &mut w.cork, at);
        }
        let wrote = if cork && w.cork.len() < CORK_MAX_BYTES {
            pair.corked.store(true, Ordering::Release);
            Ok(())
        } else {
            pair.flush(&mut w)
        };
        drop(w);
        if wrote.is_err() {
            self.note_down(to);
        }
    }

    /// Let the fault hook replace the body of the record just encoded at
    /// `buf[at..]`, in place.
    fn mangle(&self, idx: u64, buf: &mut Vec<u8>, at: usize) {
        let body_at = at + RECORD_HEADER_LEN;
        let Some(mangled) = self.fault_hook.lock().as_ref().and_then(|hook| hook(idx, &buf[body_at..])) else {
            return;
        };
        buf.truncate(body_at);
        buf.extend_from_slice(&mangled);
        let len = u32::try_from(mangled.len()).expect("mangled body fits a record");
        buf[at + 1..body_at].copy_from_slice(&len.to_le_bytes());
    }

    /// Write the cork buffer to `to`.
    fn write_cork(&self, to: u32, pair: &Pair) {
        if pair.flush(&mut pair.out.lock()).is_err() {
            self.note_down(to);
        }
    }

    /// One look of `to`'s cork rescue: write the cork if it was already
    /// seen corked at the previous look and not written since.  The reader
    /// that looks reads nothing while it writes; that write is rare (a
    /// healthy run makes none) and one cork, under `CORK_MAX_BYTES`.
    fn rescue(&self, to: u32) {
        let Some(pair) = self.pairs.get(to as usize).and_then(|p| p.as_ref()) else { return };
        if pair.corked.load(Ordering::Acquire) && pair.unclaimed.swap(true, Ordering::AcqRel) {
            self.write_cork(to, pair);
        }
    }

    /// Send an opaque control-plane message to `to` (a message to this
    /// node itself loops back through the event queue, so control
    /// broadcasts are uniform).
    pub fn send_control(&self, to: u32, bytes: &[u8]) -> Result<(), TransportError> {
        if to == self.node {
            let _ = self.events_tx.send(NetEvent::Control { from: self.node, bytes: bytes.to_vec() });
            return Ok(());
        }
        let Some(pair) = self.pairs.get(to as usize).and_then(|p| p.as_ref()) else {
            return Err(TransportError::PeerClosed { node: to });
        };
        // Behind whatever data is corked, never ahead of it.
        let mut w = pair.out.lock();
        encode_control_record(self.node, bytes, &mut w.cork);
        let wrote = pair.flush(&mut w);
        drop(w);
        wrote.map_err(|e| {
            self.note_down(to);
            TransportError::io(format!("control to node {to}"), &e)
        })
    }

    /// Wait up to `timeout` for the next mesh event.
    pub fn next_event(&self, timeout: Duration) -> Option<NetEvent> {
        self.events_rx.lock().recv_timeout(timeout).ok()
    }

    /// Malformed records dropped (plus sends to unreachable peers).
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Data records sent.
    pub fn data_sent(&self) -> u64 {
        self.data_sent.load(Ordering::Relaxed)
    }

    /// True once `node`'s connection broke.
    pub fn is_down(&self, node: u32) -> bool {
        self.down.get(node as usize).map(|d| d.load(Ordering::Acquire)).unwrap_or(true)
    }

    /// Close every socket and join the mesh's threads.  Idempotent.
    pub fn shutdown(&self) {
        if self.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        for pair in self.pairs.iter().flatten() {
            let _ = pair.out.lock().sock.shutdown(Shutdown::Both);
        }
        let mut handles = self.reader_handles.lock();
        for h in handles.drain(..) {
            let _ = h.join(); // a reader ends with its socket
        }
    }
}

impl Wire for NetMesh {
    fn send(&self, pkt: Packet) {
        self.send_data(&pkt, false);
    }

    fn send_corked(&self, pkt: Packet) {
        self.send_data(&pkt, true);
    }

    fn flush(&self) {
        for (to, pair) in self.pairs.iter().enumerate() {
            if let Some(pair) = pair.as_ref().filter(|p| p.corked.load(Ordering::Acquire)) {
                self.write_cork(to as u32, pair);
            }
        }
    }

    fn shutdown(&self) {
        NetMesh::shutdown(self);
    }
}

impl Drop for NetMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A reader's read half, through which it is also its pair's cork rescue:
/// a read that timed out (the socket's timeout is `CORK_RESCUE_TICK`) or
/// that returns a tick after the last look first looks at the cork to
/// `peer`, and a timed-out read is then read again, so the records read
/// through it never see the timeout, however a record is split.
struct Rescuing<'a> {
    mesh: &'a NetMesh,
    peer: u32,
    sock: TcpStream,
    looked: Instant,
}

impl Read for Rescuing<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let got = self.sock.read(buf);
            let timed_out = got
                .as_ref()
                .is_err_and(|e| matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut));
            if timed_out || self.looked.elapsed() >= CORK_RESCUE_TICK {
                self.mesh.rescue(self.peer);
                self.looked = Instant::now();
            }
            if !timed_out {
                return got;
            }
        }
    }
}

/// Bind one localhost listener per node on an OS-assigned port and return
/// `(listeners, manifest)` — the hermetic-test and launcher rendezvous
/// helper (the listeners are handed to [`NetSession::with_listener`], so
/// there is no bind race).
pub fn localhost_rendezvous(nodes: usize) -> Result<(Vec<TcpListener>, Vec<SocketAddr>), TransportError> {
    let mut listeners = Vec::with_capacity(nodes);
    let mut manifest = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| TransportError::io("bind :0", &e))?;
        manifest.push(l.local_addr().map_err(|e| TransportError::io("local_addr", &e))?);
        listeners.push(l);
    }
    Ok((listeners, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mdo_netsim::Pe;

    /// Sessions for an n-node localhost mesh, pre-bound (no port race).
    fn sessions(n: usize) -> Vec<NetSession> {
        let (listeners, manifest) = localhost_rendezvous(n).unwrap();
        listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| NetSession::with_listener(NetConfig::new(i as u32, manifest.clone()), l).unwrap())
            .collect()
    }

    fn establish_all(sessions: Vec<NetSession>, topo: &Topology, generation: u32) -> Vec<Arc<NetMesh>> {
        let live: Vec<u32> = (0..sessions.len() as u32).collect();
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|s| {
                let topo = topo.clone();
                let live = live.clone();
                std::thread::spawn(move || s.establish(generation, &topo, &live).map(Arc::new))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap().expect("mesh established")).collect()
    }

    #[test]
    fn two_node_mesh_moves_packets_both_ways() {
        let topo = Topology::two_cluster(4); // PEs 0,1 on node 0; 2,3 on node 1
        let meshes = establish_all(sessions(2), &topo, 0);
        let (rx0_tx, rx0) = mpsc::channel();
        let (rx1_tx, rx1) = mpsc::channel();
        meshes[0].start(move |pkt| rx0_tx.send(pkt).unwrap());
        meshes[1].start(move |pkt| rx1_tx.send(pkt).unwrap());
        meshes[0].send(Packet::with_priority(Pe(0), Pe(2), -3, Bytes::from_static(b"east")));
        meshes[1].send(Packet::with_priority(Pe(3), Pe(1), 5, Bytes::from_static(b"west")));
        let east = rx1.recv_timeout(Duration::from_secs(5)).expect("node 1 got the packet");
        assert_eq!((east.src, east.dst, east.priority), (Pe(0), Pe(2), -3));
        assert_eq!(&east.payload[..], b"east");
        let west = rx0.recv_timeout(Duration::from_secs(5)).expect("node 0 got the packet");
        assert_eq!(&west.payload[..], b"west");
        for m in &meshes {
            m.shutdown();
        }
    }

    /// Node 0 → node 1; node 1's deliveries come out of
    /// the returned channel as the payload's first four bytes.  Node 0's
    /// mesh is started — its reader, which is also the pair's cork rescue —
    /// only on request: without the rescue a cork stays exactly as long as
    /// the test leaves it.
    fn one_way(start_sender: bool) -> (Vec<Arc<NetMesh>>, mpsc::Receiver<u32>) {
        let meshes = establish_all(sessions(2), &Topology::two_cluster(2), 0);
        let (tx, rx) = mpsc::channel();
        meshes[1].start(move |pkt| tx.send(u32::from_le_bytes(pkt.payload[..4].try_into().unwrap())).unwrap());
        if start_sender {
            meshes[0].start(|_| {});
        }
        (meshes, rx)
    }

    fn numbered(i: u32, len: usize) -> Packet {
        let mut payload = i.to_le_bytes().to_vec();
        payload.resize(len.max(4), 0);
        Packet::new(Pe(0), Pe(1), Bytes::from(payload))
    }

    const NOT_YET: Duration = Duration::from_millis(40);
    const SOON: Duration = Duration::from_secs(5);

    #[test]
    fn corked_packets_wait_for_a_flush_or_a_plain_send() {
        let (meshes, rx) = one_way(false);
        for i in 0..3 {
            meshes[0].send_corked(numbered(i, 4));
        }
        assert!(rx.recv_timeout(NOT_YET).is_err(), "corked, not written");
        meshes[0].flush();
        let got: Vec<u32> = (0..3).map(|_| rx.recv_timeout(SOON).expect("flushed")).collect();
        assert_eq!(got, vec![0, 1, 2], "one stream keeps order");
        // A write-through send takes what was corked ahead of it along.
        meshes[0].send_corked(numbered(3, 4));
        meshes[0].send(numbered(4, 4));
        assert_eq!(rx.recv_timeout(SOON), Ok(3));
        assert_eq!(rx.recv_timeout(SOON), Ok(4), "on the wire when send returns");
        meshes[0].flush(); // nothing corked: a no-op
        assert!(rx.recv_timeout(NOT_YET).is_err());
        for m in &meshes {
            m.shutdown();
        }
    }

    #[test]
    fn cork_is_written_at_64_kib_without_a_flush() {
        let (meshes, rx) = one_way(false);
        // 1 KiB payloads: the 63rd record takes the buffer past 64 KiB.
        let record = RECORD_HEADER_LEN + crate::record::DATA_BODY_MIN + 1024;
        let first_write = CORK_MAX_BYTES.div_ceil(record) as u32;
        for i in 0..first_write + 5 {
            meshes[0].send_corked(numbered(i, 1024));
        }
        for i in 0..first_write {
            assert_eq!(rx.recv_timeout(SOON), Ok(i), "written when the cork filled");
        }
        assert!(rx.recv_timeout(NOT_YET).is_err(), "the tail waits for its flush");
        meshes[0].flush();
        for i in first_write..first_write + 5 {
            assert_eq!(rx.recv_timeout(SOON), Ok(i));
        }
        for m in &meshes {
            m.shutdown();
        }
    }

    #[test]
    fn an_abandoned_cork_is_rescued() {
        let (meshes, rx) = one_way(true);
        let corked = Instant::now();
        meshes[0].send_corked(numbered(9, 4));
        // No flush, ever: the promise is broken.
        assert_eq!(rx.recv_timeout(SOON), Ok(9), "written by the pair's reader");
        assert!(corked.elapsed() < Duration::from_secs(1), "within a couple of ticks, not by luck at the deadline");
        for m in &meshes {
            m.shutdown();
        }
    }

    /// The rescuing reader's read never times out while its peer streams a
    /// record every millisecond: the look on a read that returns a tick
    /// after the last one is what writes the cork, not the idle timeout.
    #[test]
    fn a_cork_abandoned_while_the_peer_streams_is_still_rescued() {
        let (meshes, rx) = one_way(true);
        let stop = Arc::new(AtomicBool::new(false));
        let (peer, streaming) = (Arc::clone(&meshes[1]), Arc::clone(&stop));
        let streamer = std::thread::spawn(move || {
            let until = Instant::now() + SOON;
            while !streaming.load(Ordering::Acquire) && Instant::now() < until {
                peer.send(Packet::new(Pe(1), Pe(0), Bytes::from_static(b"tick")));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(3 * CORK_RESCUE_TICK); // the stream is flowing
        let corked = Instant::now();
        meshes[0].send_corked(numbered(9, 4));
        let got = rx.recv_timeout(SOON);
        let took = corked.elapsed();
        stop.store(true, Ordering::Release);
        streamer.join().unwrap();
        assert_eq!(got, Ok(9), "written by the pair's reader");
        assert!(took < Duration::from_secs(1), "within a couple of ticks, not once the stream ends: {took:?}");
        for m in &meshes {
            m.shutdown();
        }
    }

    /// A record whose header and body reach the socket across pauses of
    /// several ticks is read whole: the reader's timeouts are its rescue's,
    /// never a broken record or a dead peer.
    #[test]
    fn a_record_split_across_timeouts_is_read_whole() {
        let (listeners, manifest) = localhost_rendezvous(2).unwrap();
        let session =
            NetSession::with_listener(NetConfig::new(0, manifest.clone()), listeners.into_iter().next().unwrap())
                .unwrap();
        let topo = Topology::two_cluster(2);
        let (addr, digest) = (manifest[0], topo.digest());
        let mut record = Vec::new();
        encode_data_record(&Packet::new(Pe(1), Pe(0), Bytes::from_static(b"split across ticks")), 0, &mut record);
        let (release, hold) = mpsc::channel::<()>();
        let raw = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            let (ours, deadline) = (Handshake { node: 1, generation: 0, digest }, Instant::now() + SOON);
            handshake_dial(&s, &ours, &Clock::start(), 0, deadline).expect("node 0 accepts");
            let _ = hold.recv(); // node 0's reader is running
            for piece in [&record[..2], &record[2..RECORD_HEADER_LEN + 3], &record[RECORD_HEADER_LEN + 3..]] {
                (&s).write_all(piece).unwrap();
                std::thread::sleep(3 * CORK_RESCUE_TICK);
            }
            let _ = hold.recv(); // the socket stays open until the test has looked
        });
        let mesh = Arc::new(session.establish(0, &topo, &[0, 1]).expect("mesh with the raw peer"));
        let (tx, rx) = mpsc::channel();
        mesh.start(move |pkt| tx.send(pkt).unwrap());
        release.send(()).unwrap();
        let pkt = rx.recv_timeout(SOON).expect("the record, whole");
        assert_eq!((pkt.src, pkt.dst, &pkt.payload[..]), (Pe(1), Pe(0), &b"split across ticks"[..]));
        assert!(!mesh.is_down(1), "the pauses are not a dead peer");
        assert_eq!(mesh.next_event(NOT_YET), None, "no PeerDown");
        assert_eq!(mesh.drops(), 0);
        drop(release);
        raw.join().unwrap();
        mesh.shutdown();
    }

    #[test]
    fn control_never_overtakes_data_corked_before_it() {
        let (meshes, rx) = one_way(false);
        meshes[0].send_corked(numbered(7, 4));
        meshes[0].send_control(1, b"after the data").unwrap();
        // One reader, one stream: by the time the control record surfaces,
        // the data record ahead of it has been delivered.
        assert!(matches!(meshes[1].next_event(SOON), Some(NetEvent::Control { from: 0, .. })));
        assert_eq!(rx.try_recv(), Ok(7));
        for m in &meshes {
            m.shutdown();
        }
    }

    #[test]
    fn fault_hook_mangles_one_record_in_place_inside_a_cork() {
        let (meshes, rx) = one_way(false);
        meshes[0].set_fault_hook(Some(Box::new(|idx, _body| (idx == 1).then(|| vec![0xEE; 4]))));
        for i in 0..3 {
            meshes[0].send_corked(numbered(i, 64));
        }
        meshes[0].flush();
        assert_eq!(rx.recv_timeout(SOON), Ok(0));
        assert_eq!(rx.recv_timeout(SOON), Ok(2), "the neighbours of the stump are intact");
        assert_eq!(meshes[1].drops(), 1, "the 4-byte stump was rejected by name and counted");
        meshes[0].set_fault_hook(None);
        meshes[0].send(numbered(3, 64));
        assert_eq!(rx.recv_timeout(SOON), Ok(3));
        for m in &meshes {
            m.shutdown();
        }
    }

    /// 200 packets at 20 ms from node 0 to node 1, whose clocks start 25 ms
    /// apart (further than the latency: a lost sign or a skipped translation
    /// would read as that).  Every fourth waits 5 ms in the cork first.
    /// `due` is the sender's `send + L` — never earlier, and later by no more
    /// than the round trip the estimate rests on, unless the packet reached
    /// the reader after that (a stalled host): then it is due on arrival, so
    /// a late stamp still fails on every packet posted in time.  What the
    /// cork, the socket and the reader took is inside the 20 ms, so delivery
    /// follows `due` by a mailbox wake-up and nothing else.
    #[test]
    fn a_packet_is_due_at_send_plus_latency_whatever_the_cork_and_the_socket_took() {
        const L: Duration = Duration::from_millis(20);
        const PACKETS: u32 = 200;
        let (listeners, manifest) = localhost_rendezvous(2).unwrap();
        let mut sessions = Vec::new();
        for (i, l) in listeners.into_iter().enumerate() {
            sessions.push(NetSession::with_listener(NetConfig::new(i as u32, manifest.clone()), l).unwrap());
            std::thread::sleep(Duration::from_millis(25));
        }
        let meshes = establish_all(sessions, &Topology::two_cluster(2), 0);
        let est = meshes[0].clock_of(1).expect("a clock estimate per peer");
        assert!((-40_000_000..=-25_000_000).contains(&est.ahead_ns), "node 1 bound 25 ms later: {est:?}");
        assert!(est.rtt_ns < 5_000_000, "a loopback round trip: {est:?}");
        assert_eq!(meshes[1].clock_of(0), est.mirrored(), "both ends translate by one measurement");
        assert_eq!(meshes[0].clock_of(0), None);

        let landing = Arc::new(mdo_vmi::Mailbox::new());
        let post = Arc::clone(&landing);
        let posted_at = Arc::new(Mutex::new(vec![None; PACKETS as usize]));
        let record = Arc::clone(&posted_at);
        meshes[1].start(move |pkt| {
            let i = u32::from_le_bytes(pkt.payload[..4].try_into().expect("numbered")) as usize;
            record.lock()[i] = Some(Instant::now());
            post.post(pkt);
        });
        let receiver = std::thread::spawn(move || {
            (0..PACKETS).map(|_| (landing.take().expect("delivered"), Instant::now())).collect::<Vec<_>>()
        });
        let mut sent = Vec::new();
        for i in 0..PACKETS {
            let mut pkt = numbered(i, 64);
            let now = Instant::now();
            pkt.due = Some(now + L);
            sent.push(now);
            if i % 4 == 0 {
                meshes[0].send_corked(pkt);
                std::thread::sleep(Duration::from_millis(5));
                meshes[0].flush();
            } else {
                meshes[0].send(pkt);
            }
        }
        let mut late_by = Vec::new();
        for (i, (pkt, delivered)) in receiver.join().expect("receiver").into_iter().enumerate() {
            assert_eq!(pkt.payload[..4], (i as u32).to_le_bytes(), "same latency, one stream: send order");
            let (due, earliest) = (pkt.due.expect("held"), sent[i] + L);
            assert!(due >= earliest, "packet {i} due {:?} before send + L", earliest - due);
            // A packet that reached the reader after its due is due on
            // arrival: its lateness is the host's, not the stamp's.
            let posted = posted_at.lock()[i].expect("posted");
            let slack = Duration::from_nanos(est.rtt_ns) + Duration::from_micros(1);
            assert!(
                due <= (earliest + slack).max(posted),
                "packet {i} due {:?} after send + L, rtt {est:?}",
                due - earliest
            );
            assert!(delivered >= earliest, "packet {i} visible before send + L");
            late_by.push(delivered - earliest);
        }
        late_by.sort();
        let median = late_by[late_by.len() / 2];
        assert!(median <= Duration::from_millis(1), "delivered {median:?} (median) after send + L: {late_by:?}");
        for m in &meshes {
            m.shutdown();
        }
    }

    /// A peer whose clock fields are garbage is refused by name, from either
    /// end of the socket: an acceptor whose pong is stamped before the ping
    /// arrived, and a dialer whose closing estimate contradicts what the
    /// acceptor saw of the exchange.
    #[test]
    fn a_garbage_clock_field_is_a_handshake_mismatch() {
        let (listeners, manifest) = localhost_rendezvous(2).unwrap();
        let mut it = listeners.into_iter();
        let mk = |i: u32, l: TcpListener| {
            let mut cfg = NetConfig::new(i, manifest.clone());
            cfg.connect_timeout = Duration::from_secs(5);
            NetSession::with_listener(cfg, l).unwrap()
        };
        let topo = Topology::two_cluster(2);
        let digest = topo.digest();
        let expect_clock_mismatch = |res: Result<NetMesh, TransportError>, peer: u32| match res {
            Err(TransportError::HandshakeMismatch { peer: p, field: HandshakeField::Clock, .. }) => assert_eq!(p, peer),
            other => panic!("expected a clock mismatch from node {peer}, got {other:?}"),
        };

        // Node 0 accepts a "node 1" that pings honestly and then claims to
        // be three hours ahead.
        let s0 = mk(0, it.next().unwrap());
        let addr = manifest[0];
        let rogue = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            (&s).write_all(&Handshake { node: 1, generation: 0, digest }.encode()).unwrap();
            read_fixed::<HANDSHAKE_LEN>(&s).expect("node 0 greets back");
            for t1 in 0..CLOCK_PINGS as u64 {
                (&s).write_all(&t1.to_le_bytes()).unwrap();
                read_fixed::<CLOCK_PONG_LEN>(&s).expect("a pong per ping");
            }
            let lie = ClockEstimate { ahead_ns: 3 * 3_600_000_000_000, rtt_ns: 10 };
            (&s).write_all(&lie.encode()).unwrap();
            let _ = read_fixed::<1>(&s); // node 0 closes on us
        });
        let started = Instant::now();
        expect_clock_mismatch(s0.establish(0, &topo, &[0, 1]), 1);
        rogue.join().unwrap();

        // Node 1 dials a "node 0" whose first pong says it answered before
        // it was asked.
        let rogue_listener = it.next().unwrap();
        let (rogue_addr, mut cfg) = (rogue_listener.local_addr().unwrap(), NetConfig::new(1, manifest.clone()));
        cfg.manifest[0] = rogue_addr;
        cfg.connect_timeout = Duration::from_secs(5);
        let s1 = NetSession::with_listener(cfg, TcpListener::bind(("127.0.0.1", 0)).unwrap()).unwrap();
        let rogue = std::thread::spawn(move || {
            let (s, _) = rogue_listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            read_fixed::<HANDSHAKE_LEN>(&s).expect("node 1 greets");
            (&s).write_all(&Handshake { node: 0, generation: 0, digest }.encode()).unwrap();
            read_fixed::<CLOCK_PING_LEN>(&s).expect("a ping");
            (&s).write_all(&words(500, 400)).unwrap();
            let _ = read_fixed::<1>(&s); // node 1 closes on us
        });
        expect_clock_mismatch(s1.establish(0, &topo, &[0, 1]), 0);
        rogue.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "refused on the spot, not at a deadline");
    }

    #[test]
    fn control_plane_and_peer_down() {
        let topo = Topology::two_cluster(2);
        let meshes = establish_all(sessions(2), &topo, 3);
        meshes[0].start(|_| {});
        meshes[1].start(|_| {});
        meshes[1].send_control(0, b"report").unwrap();
        match meshes[0].next_event(Duration::from_secs(5)) {
            Some(NetEvent::Control { from: 1, bytes }) => assert_eq!(bytes, b"report"),
            other => panic!("expected control from node 1, got {other:?}"),
        }
        // Loopback control reaches our own queue.
        meshes[0].send_control(0, b"self").unwrap();
        assert!(matches!(meshes[0].next_event(Duration::from_secs(5)), Some(NetEvent::Control { from: 0, .. })));
        // Killing node 1's mesh surfaces PeerDown at node 0.
        meshes[1].shutdown();
        match meshes[0].next_event(Duration::from_secs(5)) {
            Some(NetEvent::PeerDown { node: 1 }) => {}
            other => panic!("expected PeerDown node 1, got {other:?}"),
        }
        assert!(meshes[0].is_down(1));
        meshes[0].shutdown();
    }

    #[test]
    fn topology_digest_mismatch_is_rejected_without_hanging() {
        let (listeners, manifest) = localhost_rendezvous(2).unwrap();
        let mut it = listeners.into_iter();
        let mk = |i: u32, l: TcpListener| {
            let mut cfg = NetConfig::new(i, manifest.clone());
            cfg.connect_timeout = Duration::from_secs(5);
            NetSession::with_listener(cfg, l).unwrap()
        };
        let s0 = mk(0, it.next().unwrap());
        let s1 = mk(1, it.next().unwrap());
        let t0 = Topology::two_cluster(4);
        let t1 = Topology::two_cluster(8); // disagree about the job
        let h0 = std::thread::spawn(move || s0.establish(0, &t0, &[0, 1]));
        let h1 = std::thread::spawn(move || s1.establish(0, &t1, &[0, 1]));
        let started = Instant::now();
        let e0 = h0.join().unwrap();
        let e1 = h1.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(10), "rejection is prompt, not a hang");
        // Both sides reject, each with a structured digest mismatch (one
        // side may instead observe the peer closing on it first).
        let mismatch = |r: &Result<NetMesh, TransportError>| {
            matches!(
                r,
                Err(TransportError::HandshakeMismatch { field: crate::error::HandshakeField::TopologyDigest, .. })
            )
        };
        let closed = |r: &Result<NetMesh, TransportError>| {
            matches!(r, Err(TransportError::PeerClosed { .. }) | Err(TransportError::Io { .. }))
        };
        assert!(mismatch(&e0) || closed(&e0), "node 0: {e0:?}");
        assert!(mismatch(&e1) || closed(&e1), "node 1: {e1:?}");
        assert!(mismatch(&e0) || mismatch(&e1), "at least one side names the digest");
    }

    #[test]
    fn wire_version_mismatch_is_structured() {
        let (listeners, manifest) = localhost_rendezvous(2).unwrap();
        let cfg = {
            let mut c = NetConfig::new(0, manifest.clone());
            c.connect_timeout = Duration::from_secs(5);
            c
        };
        let session = NetSession::with_listener(cfg, listeners.into_iter().next().unwrap()).unwrap();
        let topo = Topology::two_cluster(2);
        // A "node 1" speaking another wire version dials node 0 directly:
        // some future one, and version 2 with its 26-byte greeting.
        let addr = manifest[0];
        for (version, greeting_len) in [(99u16, HANDSHAKE_LEN), (2, 26)] {
            let rogue = std::thread::spawn(move || {
                let s = TcpStream::connect(addr).unwrap();
                let mut buf = Handshake { node: 1, generation: 0, digest: 0 }.encode().to_vec();
                buf[4..6].copy_from_slice(&version.to_le_bytes());
                buf.resize(greeting_len, 0);
                (&s).write_all(&buf).unwrap();
                let mut reply = [0u8; HANDSHAKE_LEN];
                let _ = (&s).read_exact(&mut reply); // node 0 closes on us
            });
            let err = session.establish(0, &topo, &[0, 1]).expect_err("version mismatch must fail");
            rogue.join().unwrap();
            match err {
                TransportError::HandshakeMismatch { field: crate::error::HandshakeField::Version, got, .. }
                    if got == version as u64 => {}
                other => panic!("expected version {version} mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_control_record_written_before_close_arrives_before_peer_down() {
        let meshes = establish_all(sessions(2), &Topology::two_cluster(2), 0);
        let (tx, rx) = mpsc::channel();
        meshes[0].start(move |pkt| tx.send(pkt).unwrap());
        // Node 1 finishes the way a node process does: last data corked, the
        // goodbye, the sockets closed — with nothing in between.
        meshes[1].send_corked(Packet::new(Pe(1), Pe(0), Bytes::from_static(b"last")));
        meshes[1].send_control(0, b"done").unwrap();
        meshes[1].shutdown();
        match meshes[0].next_event(SOON) {
            Some(NetEvent::Control { from: 1, bytes }) => assert_eq!(bytes, b"done"),
            other => panic!("the goodbye comes first, got {other:?}"),
        }
        assert_eq!(&rx.try_recv().expect("data ahead of the control record is already delivered").payload[..], b"last");
        assert_eq!(meshes[0].next_event(SOON), Some(NetEvent::PeerDown { node: 1 }));
        assert!(meshes[0].is_down(1));
        assert_eq!(meshes[0].next_event(NOT_YET), None, "exactly one PeerDown");
        meshes[0].shutdown();
    }

    #[test]
    fn a_second_connection_claiming_a_connected_node_is_refused() {
        let (listeners, manifest) = localhost_rendezvous(3).unwrap();
        let mut cfg = NetConfig::new(0, manifest.clone());
        cfg.connect_timeout = Duration::from_secs(5);
        let session = NetSession::with_listener(cfg, listeners.into_iter().next().unwrap()).unwrap();
        let topo = Topology::uniform(3, 1);
        let (addr, digest) = (manifest[0], topo.digest());
        // Node 0 waits for nodes 1 and 2; both connections say "node 1".
        let (release, hold) = mpsc::channel::<()>();
        let rogue = std::thread::spawn(move || {
            let greet = || {
                let s = TcpStream::connect(addr).unwrap();
                let (ours, deadline) = (Handshake { node: 1, generation: 0, digest }, Instant::now() + SOON);
                handshake_dial(&s, &ours, &Clock::start(), 0, deadline).expect("node 0 answers before it decides");
                s
            };
            let _both = (greet(), greet());
            let _ = hold.recv(); // both sockets stay open until node 0 has decided
        });
        let started = Instant::now();
        let res = session.establish(0, &topo, &[0, 1, 2]);
        assert!(started.elapsed() < Duration::from_secs(5), "refused at the second greeting, not at the deadline");
        drop(release);
        rogue.join().unwrap();
        match res {
            Err(TransportError::Malformed { .. } | TransportError::HandshakeMismatch { .. }) => {}
            other => panic!("expected a structured refusal, got {other:?}"),
        }
    }
}
