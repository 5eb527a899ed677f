//! The transport seam under the [`Communicator`](crate::Communicator):
//! endpoint wiring, framed send, per-source ordered delivery with
//! deadline-aware blocking receive, and teardown.
//!
//! Everything *above* this trait is transport-agnostic and byte-identical
//! across implementations: the `Request`-handle API, tag matching and the
//! per-source reorder buffer, [`FaultPlan`](crate::FaultPlan) injection,
//! [`CommConfig`](crate::CommConfig) timeout/retry policy, the poison-pill
//! abort protocol, link-model pacing, checksums, and per-class
//! [`TrafficMeter`](crate::TrafficMeter) accounting. A transport only moves
//! opaque [`Frame`]s and promises:
//!
//! 1. **Non-blocking send** — [`Transport::send`] queues the frame and
//!    returns immediately (buffered-isend semantics). The only error is
//!    [`TransportClosed`]: the destination endpoint is gone.
//! 2. **Per-source FIFO** — frames from one source are delivered in the
//!    order they were sent (the guarantee NCCL P2P gives within a stream).
//!    No ordering is promised *across* sources.
//! 3. **Deadline-aware receive** — [`Transport::recv_timeout`] blocks at
//!    most the given duration, so the layer above can poll the abort cell
//!    between slices and honour its receive budget exactly.
//! 4. **Abort propagation** — [`Transport::propagate_abort`] makes a fatal
//!    local failure visible to every peer's [`AbortCell`] even when the
//!    peers share no memory with this endpoint (the TCP transport forwards
//!    it as a control frame; the in-process transport's cell is already
//!    shared).
//! 5. **Clean teardown** — [`Transport::shutdown`] announces a deliberate
//!    close, so peers can tell a finished endpoint from a crashed one.
//!
//! Two implementations ship: [`ChannelTransport`] (the original in-process
//! `mpsc` mesh, one OS thread per rank) and
//! [`TcpTransport`](crate::tcp::TcpTransport) (one OS *process* per rank
//! over localhost sockets). The cross-transport conformance suite runs the
//! full bit-identity battery over both.

use crate::error::CommError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wp_tensor::DType;

/// Which substrate a [`WorldBuilder`](crate::WorldBuilder) wires its ranks
/// over. The layers above the [`Transport`] trait behave byte-identically
/// across kinds; the cross-transport conformance suite enforces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The in-process `mpsc` mesh: one OS thread per rank, one unbounded
    /// channel per directed pair. The default.
    #[default]
    InProcess,
    /// Real localhost TCP sockets. Via a [`WorldBuilder`](crate::WorldBuilder)
    /// the ranks are still threads of one process (each owning a genuine
    /// socket endpoint); `wp-bench ranks` runs the same transport with one
    /// OS *process* per rank.
    TcpLocalhost,
}

/// Independent hash lanes in [`checksum_of`]: one u64 word (two adjacent
/// f32 bit patterns) per lane per 16-element block, so eight multiply
/// chains run in parallel instead of one serial byte-at-a-time chain.
const CHECKSUM_LANES: usize = 8;
/// Odd multiplier (2⁶⁴/φ): multiplication by an odd constant is a
/// bijection on u64.
const CHECKSUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One hash step: xor the word in, multiply by an odd constant, rotate.
/// Each of the three is a bijection on the state for a fixed word and on
/// the word for a fixed state, so two inputs differing in exactly one word
/// always leave different states. The rotate folds the product's high bits
/// (where a multiply pushes every difference) back down to the low end,
/// so a difference in a word's top bit cannot be cancelled by the same
/// difference in the lane's next word.
#[inline(always)]
fn checksum_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(CHECKSUM_MUL).rotate_left(29)
}

/// The end-to-end checksum carried by every [`Frame`]: a word-wise,
/// 8-lane FNV-style hash over the payload's f32 bit patterns.
///
/// The algorithm is part of the wire protocol (both ends must agree), so
/// it is fixed and tested against a known-answer vector:
///
/// 1. every lane starts at `seed = CHECKSUM_SEED ^ len·CHECKSUM_MUL` plus
///    its lane index, so payloads of different lengths hash apart;
/// 2. each full block of 16 elements feeds lane `i` the word
///    `bits[2i] | bits[2i+1] << 32` through the step
///    `h = rotl((h ^ word)·CHECKSUM_MUL, 29)`;
/// 3. the lanes fold in order into a state starting at `seed`, then the
///    0–15 remainder elements follow one 32-bit word each;
/// 4. a final xor-shift/multiply avalanche (also a bijection) mixes the
///    result.
///
/// Every step is a bijection, so changing any single element — one flipped
/// bit included — always changes the checksum. Bit patterns, not values,
/// are hashed: `0.0` and `-0.0` differ.
pub fn checksum_of(data: &[f32]) -> u64 {
    let seed = CHECKSUM_SEED ^ (data.len() as u64).wrapping_mul(CHECKSUM_MUL);
    let mut lanes = [0u64; CHECKSUM_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = seed.wrapping_add(i as u64);
    }
    let blocks = data.chunks_exact(2 * CHECKSUM_LANES);
    let tail = blocks.remainder();
    for block in blocks {
        let block: &[f32; 2 * CHECKSUM_LANES] = block.try_into().expect("exact chunk");
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word =
                u64::from(block[2 * i].to_bits()) | (u64::from(block[2 * i + 1].to_bits()) << 32);
            *lane = checksum_step(*lane, word);
        }
    }
    let mut h = lanes.into_iter().fold(seed, checksum_step);
    for x in tail {
        h = checksum_step(h, u64::from(x.to_bits()));
    }
    h ^= h >> 31;
    h = h.wrapping_mul(CHECKSUM_MUL);
    h ^ (h >> 32)
}

/// One framed message: the tag/class envelope plus payload that every
/// transport carries verbatim. The fields are decided *above* the trait
/// (quantization, checksumming, fault corruption, link pacing) — a
/// transport never alters them, it only preserves them. A serializing
/// transport reads [`wire`](Self::wire) to pack the payload, losslessly.
#[derive(Debug)]
pub struct Frame {
    /// User or collective tag (matching happens above the transport).
    pub tag: u64,
    /// Payload, already quantized through its wire dtype.
    pub data: Vec<f32>,
    /// Earliest wall-clock instant the receiver may consume this frame
    /// (link-model pacing plus injected delay). `None` when instant.
    /// Transports that cross a process boundary carry the *remaining*
    /// delay on the wire and re-anchor it on arrival.
    pub deliver_at: Option<Instant>,
    /// [`checksum_of`] over the payload bits, computed at send time (before
    /// any injected corruption).
    pub checksum: u64,
    /// Wire dtype the payload was quantized through. It fixes both the
    /// size both ends charge ([`wire_bytes`](Self::wire_bytes)) and, on
    /// transports that serialize, the packing: 16-bit dtypes cross a socket
    /// at 2 bytes per element.
    pub wire: DType,
    /// Whether this frame is a collective hop, so the receiver charges the
    /// same traffic class the sender was charged.
    pub collective: bool,
    /// Configuration epoch the sender belonged to when it sent this frame.
    /// After an elastic reconfiguration the surviving world bumps its epoch;
    /// the receive path silently drops frames stamped with any other epoch,
    /// so a straggler from the pre-fault world can never be mistaken for
    /// current traffic. Stamped above the trait; transports carry it
    /// verbatim.
    pub epoch: u64,
}

impl Frame {
    /// Wire size charged on both ends: element count × wire dtype width.
    pub fn wire_bytes(&self) -> u64 {
        (self.data.len() * self.wire.size_bytes()) as u64
    }

    /// Whether the payload still matches its send-time checksum.
    pub fn verify(&self) -> bool {
        checksum_of(&self.data) == self.checksum
    }
}

/// The destination endpoint is gone: its rank exited, crashed, or tore the
/// connection down. The layer above maps this to
/// [`CommError::PeerDead`] (or the standing
/// abort cause when the world is already unwinding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

/// Outcome of a non-blocking receive probe ([`Transport::try_recv`]).
#[derive(Debug)]
pub enum RecvPoll {
    /// The next frame from this source, in per-source FIFO order.
    Frame(Frame),
    /// Nothing buffered right now; the source is still connected.
    Empty,
    /// The source endpoint is gone and nothing more will arrive from it.
    Closed,
}

/// Outcome of a bounded blocking receive ([`Transport::recv_timeout`]).
#[derive(Debug)]
pub enum RecvWait {
    /// The next frame from this source, in per-source FIFO order.
    Frame(Frame),
    /// The timeout elapsed with nothing buffered; the source is still
    /// connected.
    TimedOut,
    /// The source endpoint is gone and nothing more will arrive from it.
    Closed,
}

/// The world-wide poison pill: the first fatal error trips the flag and
/// records `(origin, cause)`; every rank polls the flag from its blocking
/// operations and unwinds with the propagated cause.
///
/// In the in-process world one cell is shared by every rank. Across
/// processes each rank owns a cell and transports trip it remotely: an
/// abort control frame — or an unclean disconnect — observed by a
/// transport's delivery machinery trips the local cell, so blocking
/// operations unwind within one poll interval exactly as they do in
/// process.
#[derive(Debug, Default)]
pub struct AbortCell {
    tripped: AtomicBool,
    cause: Mutex<Option<(usize, CommError)>>,
}

impl AbortCell {
    /// Record a fatal failure. First cause wins; later trips are no-ops.
    pub fn trip(&self, origin: usize, cause: CommError) {
        let mut guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some((origin, cause));
        }
        drop(guard);
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether any fatal failure has been recorded.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The recorded failure, verbatim: the origin rank and the root cause.
    /// `None` until the cell trips.
    pub fn cause(&self) -> Option<(usize, CommError)> {
        let guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        guard.clone()
    }

    /// The error rank `me` should unwind with. The origin rank gets its own
    /// error back; `PeerDead` propagates verbatim so every survivor learns
    /// who died; anything else surfaces as `Aborted` naming the origin.
    pub fn cause_for(&self, me: usize) -> CommError {
        let guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Some((origin, e)) if *origin == me => e.clone(),
            Some((_, e @ CommError::PeerDead { .. })) => e.clone(),
            Some((_, e @ CommError::Aborted { .. })) => e.clone(),
            Some((origin, e)) => CommError::Aborted {
                origin: *origin,
                reason: e.to_string(),
            },
            None => CommError::Aborted {
                origin: me,
                reason: "world aborted".into(),
            },
        }
    }
}

/// One rank's endpoint of a message-moving substrate.
///
/// Implementations must be [`Send`] (each endpoint is owned by exactly one
/// rank thread or process) but need not be `Sync`. See the module docs for
/// the contract; the cross-transport conformance suite is the executable
/// form of it.
pub trait Transport: Send + std::fmt::Debug {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// The abort cell this endpoint's rank polls. In-process transports
    /// share one cell world-wide; cross-process transports own a local
    /// cell and trip it when a peer's abort reaches them.
    fn abort_cell(&self) -> &Arc<AbortCell>;

    /// Queue `frame` for delivery to `dst` and return without blocking
    /// (buffered-isend semantics: the payload is on the wire — or in a
    /// writer's queue — when this returns).
    ///
    /// # Errors
    /// [`TransportClosed`] when `dst`'s endpoint is gone.
    fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed>;

    /// Non-blocking probe for the next frame from `src`.
    fn try_recv(&mut self, src: usize) -> RecvPoll;

    /// Block up to `timeout` for the next frame from `src`. Never blocks
    /// longer: the caller slices its receive budget into poll intervals so
    /// it can honour aborts and deadlines between slices.
    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait;

    /// Make a fatal local failure visible to every peer (best-effort). The
    /// in-process mesh shares its abort cell, so this is a no-op there; the
    /// TCP transport forwards an abort control frame to each peer.
    fn propagate_abort(&mut self, _origin: usize, _cause: &CommError) {}

    /// Attach the rank's probe for transport-*internal* accounting the
    /// layers above cannot see (wire frames by type, per-peer writer queue
    /// depth, abort relays). Default no-op: the in-process mesh has no
    /// internal machinery worth counting — payload traffic is already
    /// metered above the trait.
    fn instrument(&mut self, _probe: crate::Probe) {}

    /// Deliberate teardown: announce a clean close to every peer so they
    /// can distinguish a finished endpoint (quiescent disconnect) from a
    /// crashed one (abort). Idempotent; also invoked on drop.
    fn shutdown(&mut self) {}
}

/// The original in-process transport: each directed rank pair is an
/// unbounded `mpsc` channel, every rank an OS thread in one process. Sends
/// never block, per-source FIFO holds per channel, and the abort cell is
/// shared by the whole mesh, so `propagate_abort` has nothing to do.
#[derive(Debug)]
pub struct ChannelTransport {
    rank: usize,
    world: usize,
    /// `outbox[dst]` sends into dst's `inbox[self.rank]`.
    outbox: Vec<Sender<Frame>>,
    /// `inbox[src]` receives frames sent by `src`.
    inbox: Vec<Receiver<Frame>>,
    abort: Arc<AbortCell>,
}

impl ChannelTransport {
    /// Wire up a full mesh of `p` endpoints sharing one abort cell.
    pub fn mesh(p: usize) -> Vec<ChannelTransport> {
        assert!(p >= 1, "world size must be at least 1");
        let abort = Arc::new(AbortCell::default());
        // channels[src][dst]
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let (tx, rx) = channel();
                senders[src][dst] = Some(tx);
                // dst's inbox, indexed by src.
                receivers[dst][src] = Some(rx);
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (outs, ins))| {
                // Self-channels are never used; fill with a dummy pair so
                // indexing stays direct.
                ChannelTransport {
                    rank,
                    world: p,
                    outbox: outs
                        .into_iter()
                        .map(|o| o.unwrap_or_else(|| channel().0))
                        .collect(),
                    inbox: ins
                        .into_iter()
                        .map(|i| i.unwrap_or_else(|| channel().1))
                        .collect(),
                    abort: abort.clone(),
                }
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn abort_cell(&self) -> &Arc<AbortCell> {
        &self.abort
    }

    fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed> {
        self.outbox[dst].send(frame).map_err(|_| TransportClosed)
    }

    fn try_recv(&mut self, src: usize) -> RecvPoll {
        match self.inbox[src].try_recv() {
            Ok(f) => RecvPoll::Frame(f),
            Err(TryRecvError::Empty) => RecvPoll::Empty,
            Err(TryRecvError::Disconnected) => RecvPoll::Closed,
        }
    }

    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
        match self.inbox[src].recv_timeout(timeout) {
            Ok(f) => RecvWait::Frame(f),
            Err(RecvTimeoutError::Timeout) => RecvWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvWait::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u64, data: Vec<f32>) -> Frame {
        Frame {
            tag,
            checksum: checksum_of(&data),
            wire: DType::F32,
            data,
            deliver_at: None,
            collective: false,
            epoch: 0,
        }
    }

    #[test]
    fn mesh_routes_per_source_fifo() {
        let mut m = ChannelTransport::mesh(3);
        let mut c = m.remove(2);
        let mut a = m.remove(0);
        let mut b = m.remove(0);
        a.send(2, frame(1, vec![1.0])).unwrap();
        a.send(2, frame(2, vec![2.0])).unwrap();
        b.send(2, frame(9, vec![9.0])).unwrap();
        // Per-source FIFO: a's frames arrive in order regardless of b's.
        match c.try_recv(0) {
            RecvPoll::Frame(f) => assert_eq!(f.tag, 1),
            other => panic!("expected frame, got {other:?}"),
        }
        match c.recv_timeout(0, Duration::from_millis(50)) {
            RecvWait::Frame(f) => assert_eq!(f.tag, 2),
            other => panic!("expected frame, got {other:?}"),
        }
        match c.try_recv(1) {
            RecvPoll::Frame(f) => assert_eq!(f.tag, 9),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(c.try_recv(0), RecvPoll::Empty));
    }

    #[test]
    fn dropped_endpoint_reads_as_closed() {
        let mut m = ChannelTransport::mesh(2);
        let mut b = m.remove(1);
        drop(m); // rank 0's endpoint gone
        assert!(matches!(b.try_recv(0), RecvPoll::Closed));
        assert!(matches!(
            b.recv_timeout(0, Duration::from_millis(1)),
            RecvWait::Closed
        ));
        assert_eq!(b.send(0, frame(0, vec![])), Err(TransportClosed));
    }

    #[test]
    fn mesh_shares_one_abort_cell() {
        let m = ChannelTransport::mesh(3);
        m[0].abort_cell().trip(0, CommError::PeerDead { rank: 0 });
        for t in &m {
            assert!(t.abort_cell().is_tripped());
            assert_eq!(
                t.abort_cell().cause_for(t.rank()),
                CommError::PeerDead { rank: 0 }
            );
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        // 0 and 1 exercise the empty and tail-only paths, 15/16/17 the
        // block boundary, 33 two full blocks plus a tail.
        for n in [0usize, 1, 15, 16, 17, 33] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32 - 7.25) * 0.37).collect();
            let base = checksum_of(&data);
            for i in 0..n {
                for bit in 0..32 {
                    let mut d = data.clone();
                    d[i] = f32::from_bits(d[i].to_bits() ^ (1 << bit));
                    assert_ne!(checksum_of(&d), base, "n={n}: element {i} bit {bit}");
                }
            }
            // Length is hashed too: appending a zero is a change.
            let mut longer = data.clone();
            longer.push(0.0);
            assert_ne!(checksum_of(&longer), base, "n={n}: appended zero");
        }
    }

    #[test]
    fn checksum_pair_of_top_bit_flips_in_one_lane_is_detected() {
        // Elements 1 and 17 feed the same lane in consecutive blocks, both
        // in a word's top bit; without the rotate they would cancel.
        let data = vec![1.0f32; 32];
        let mut d = data.clone();
        d[1] = -d[1];
        d[17] = -d[17];
        assert_ne!(checksum_of(&d), checksum_of(&data));
    }

    #[test]
    fn checksum_known_answers() {
        // Frozen: the checksum is part of the wire protocol, so any change
        // to the algorithm must be deliberate (and bump the TCP protocol
        // version).
        let ramp: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let got = [
            checksum_of(&[]),
            checksum_of(&[1.0]),
            checksum_of(&[-0.0, f32::INFINITY, f32::NAN]),
            checksum_of(&ramp),
        ];
        let want = [
            0xe4cf_033f_cefb_5c35,
            0x5916_15fe_c312_59ae,
            0x2030_f266_08c5_51e2,
            0x1fdf_b6ee_4b3e_ed7c,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn frame_checksum_round_trips() {
        let f = frame(7, vec![1.0, -0.0, 3.5]);
        assert!(f.verify());
        let mut bad = frame(7, vec![1.0, -0.0, 3.5]);
        bad.data[1] = 0.0; // different bit pattern, same value
        assert!(!bad.verify());
    }
}
