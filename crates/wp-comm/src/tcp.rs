//! Localhost TCP transport: each rank is a real socket endpoint — and, via
//! `wp-bench ranks`, a real OS process.
//!
//! # Wire format
//!
//! Every frame on a stream is `[len: u32][kind: u8][body: len-1 bytes]`,
//! all integers little-endian, `len` counting the kind byte plus the body:
//!
//! * `HELLO` (handshake, sent once by the connecting side before any
//!   frame): magic `0x57505452` ("WPTR"), protocol version `u8`, sender
//!   rank `u32`. The accepting side learns who is at the other end.
//! * `DATA` (kind 1): `tag u64`, `checksum u64`, `flags u8`,
//!   `delay_ns u64`, `epoch u64`, `n u32`, then the `n` payload elements
//!   packed at the wire dtype's width: f32 bit patterns as `u32`, bf16 as
//!   the high `u16` of the (already bf16-quantized) f32 bits, f16 as
//!   [`f32_to_f16_bits`]. `flags` bit 0 = collective hop, bit 1 =
//!   delivery delay present, bits 2–3 = wire dtype (0 = f32, 1 = f16,
//!   2 = bf16). The header is a fixed 42 bytes (length prefix
//!   included), so a frame occupies exactly `42 + n × width`
//!   bytes on the socket — the size both ends charge the
//!   [`TrafficMeter`](crate::TrafficMeter) plus the header. The
//!   tag/class/epoch envelope of [`Frame`] crosses verbatim; the
//!   link-model delivery deadline crosses the process boundary as a
//!   *remaining* delay, captured when the frame hits the wire and
//!   re-anchored to the receiver's clock on arrival (wall clocks of
//!   different processes never compare). Packing is lossless because
//!   frames are quantized through their wire dtype before they reach the
//!   transport; a payload that is not (a contract violation or a bit
//!   flip) fails its checksum on arrival.
//! * `ABORT` (kind 2): origin rank `u32` plus an encoded
//!   [`CommError`] — the poison pill crossing a process boundary. The
//!   reader thread trips the local [`AbortCell`], so blocked receives
//!   unwind within one poll interval exactly as they do in process.
//! * `GOODBYE` (kind 3): empty body. A deliberate close; distinguishes a
//!   rank that finished from a rank that crashed. EOF *without* a goodbye
//!   (e.g. the peer process was SIGKILLed) trips the local abort cell with
//!   [`CommError::PeerDead`].
//!
//! # Threads
//!
//! Per peer, one writer thread (owns the socket's write half via an
//! unbounded command queue — sends never block, preserving buffered-isend
//! semantics) and one reader thread (parses frames into a per-source FIFO
//! channel — preserving the per-source ordering guarantee). Teardown joins
//! the writers (flushing queued frames), then shuts the sockets down to
//! unblock the readers.

use crate::error::CommError;
use crate::probe::Probe;
use crate::transport::{AbortCell, Frame, RecvPoll, RecvWait, Transport, TransportClosed};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wp_metrics::{Counter, Gauge};
use wp_tensor::dtype::{bf16_bits_to_f32, f16_bits_to_f32, f32_to_f16_bits};
use wp_tensor::DType;

/// Probe shared with the per-peer reader/writer threads. The threads spawn
/// at establish time, before any `instrument` call, so they watch a
/// `OnceLock` instead of owning the probe directly; until (unless) a probe
/// is attached, every site is one relaxed load.
type ProbeCell = Arc<OnceLock<Probe>>;

const MAGIC: u32 = 0x5750_5452; // "WPTR"
/// Version 2 added the per-frame configuration epoch and the
/// MembershipMismatch error variant; version 3 packs 16-bit payloads at
/// their wire width, records the wire dtype in the DATA flags and drops the
/// redundant `wire_bytes` header field. Mixed-version meshes are rejected
/// at HELLO time rather than mis-parsed mid-stream.
const PROTO_VERSION: u8 = 3;
const KIND_DATA: u8 = 1;
const KIND_ABORT: u8 = 2;
const KIND_GOODBYE: u8 = 3;
/// Upper bound on one frame's encoded size; anything larger is a framing
/// error (a desynchronised or hostile stream), treated as an unclean close.
const MAX_FRAME: u32 = 1 << 30;

const FLAG_COLLECTIVE: u8 = 1 << 0;
const FLAG_HAS_DELAY: u8 = 1 << 1;
const FLAG_DTYPE_SHIFT: u32 = 2;
const FLAG_DTYPE_MASK: u8 = 0b11 << FLAG_DTYPE_SHIFT;

/// Encoded size of a DATA frame before its payload: length prefix, kind,
/// tag, checksum, flags, delay, epoch and element count.
const DATA_HEADER: usize = 4 + 1 + 8 + 8 + 1 + 8 + 8 + 4;

fn dtype_code(d: DType) -> u8 {
    match d {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::BF16 => 2,
    }
}

fn dtype_of_code(c: u8) -> Option<DType> {
    match c {
        0 => Some(DType::F32),
        1 => Some(DType::F16),
        2 => Some(DType::BF16),
        _ => None,
    }
}

// ---- Encoding ------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let x = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(x)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.b.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.b.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
}

/// Serialize `frame` as a DATA wire frame (including the length prefix)
/// into `buf`, in one pass over a buffer sized up front. `buf` is reused
/// across frames: it only grows (and zero-fills) when a frame is larger
/// than every earlier one, and every byte is then overwritten. `delay` is
/// the remaining link-model delivery delay at the moment the frame hits
/// the wire.
fn encode_data(frame: &Frame, delay: Option<Duration>, buf: &mut Vec<u8>) {
    let n = frame.data.len();
    buf.resize(DATA_HEADER + frame.wire_bytes() as usize, 0);
    let (header, payload) = buf.split_at_mut(DATA_HEADER);
    let mut flags = dtype_code(frame.wire) << FLAG_DTYPE_SHIFT;
    if frame.collective {
        flags |= FLAG_COLLECTIVE;
    }
    if delay.is_some() {
        flags |= FLAG_HAS_DELAY;
    }
    let len = (DATA_HEADER - 4 + payload.len()) as u32;
    header[0..4].copy_from_slice(&len.to_le_bytes());
    header[4] = KIND_DATA;
    header[5..13].copy_from_slice(&frame.tag.to_le_bytes());
    header[13..21].copy_from_slice(&frame.checksum.to_le_bytes());
    header[21] = flags;
    let delay_ns = delay.map_or(0, |d| d.as_nanos() as u64);
    header[22..30].copy_from_slice(&delay_ns.to_le_bytes());
    header[30..38].copy_from_slice(&frame.epoch.to_le_bytes());
    header[38..42].copy_from_slice(&(n as u32).to_le_bytes());
    match frame.wire {
        DType::F32 => {
            for (w, x) in payload.chunks_exact_mut(4).zip(&frame.data) {
                w.copy_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        DType::BF16 => {
            for (w, x) in payload.chunks_exact_mut(2).zip(&frame.data) {
                w.copy_from_slice(&((x.to_bits() >> 16) as u16).to_le_bytes());
            }
        }
        DType::F16 => {
            for (w, x) in payload.chunks_exact_mut(2).zip(&frame.data) {
                w.copy_from_slice(&f32_to_f16_bits(*x).to_le_bytes());
            }
        }
    }
}

/// Parse a DATA body (everything after the kind byte), widening the packed
/// payload back to f32 in one pass. The delivery deadline is re-anchored to
/// this process's clock.
fn decode_data(body: &[u8]) -> Option<Frame> {
    let mut c = Cursor::new(body);
    let tag = c.u64()?;
    let checksum = c.u64()?;
    let flags = c.u8()?;
    let delay_ns = c.u64()?;
    let epoch = c.u64()?;
    let n = c.u32()? as usize;
    let wire = dtype_of_code((flags & FLAG_DTYPE_MASK) >> FLAG_DTYPE_SHIFT)?;
    let raw = c.bytes(n.checked_mul(wire.size_bytes())?)?;
    let mut data = vec![0.0f32; n];
    match wire {
        DType::F32 => {
            for (x, w) in data.iter_mut().zip(raw.chunks_exact(4)) {
                *x = f32::from_bits(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            }
        }
        DType::BF16 => {
            for (x, w) in data.iter_mut().zip(raw.chunks_exact(2)) {
                *x = bf16_bits_to_f32(u16::from_le_bytes([w[0], w[1]]));
            }
        }
        DType::F16 => {
            for (x, w) in data.iter_mut().zip(raw.chunks_exact(2)) {
                *x = f16_bits_to_f32(u16::from_le_bytes([w[0], w[1]]));
            }
        }
    }
    let deliver_at =
        (flags & FLAG_HAS_DELAY != 0).then(|| Instant::now() + Duration::from_nanos(delay_ns));
    Some(Frame {
        tag,
        data,
        deliver_at,
        checksum,
        wire,
        collective: flags & FLAG_COLLECTIVE != 0,
        epoch,
    })
}

/// Serialize a [`CommError`] for an ABORT frame: variant byte + fields,
/// strings length-prefixed UTF-8.
fn encode_err(e: &CommError, buf: &mut Vec<u8>) {
    match e {
        CommError::PeerDead { rank } => {
            buf.push(0);
            put_u64(buf, *rank as u64);
        }
        CommError::Timeout {
            src,
            tag,
            waited_ms,
        } => {
            buf.push(1);
            put_u64(buf, *src as u64);
            put_u64(buf, *tag);
            put_u64(buf, *waited_ms);
        }
        CommError::Corrupt { src, tag } => {
            buf.push(2);
            put_u64(buf, *src as u64);
            put_u64(buf, *tag);
        }
        CommError::Aborted { origin, reason } => {
            buf.push(3);
            put_u64(buf, *origin as u64);
            put_u32(buf, reason.len() as u32);
            buf.extend_from_slice(reason.as_bytes());
        }
        CommError::InvalidTag { tag } => {
            buf.push(4);
            put_u64(buf, *tag);
        }
        CommError::MembershipMismatch { rank, detail } => {
            buf.push(5);
            put_u64(buf, *rank as u64);
            put_u32(buf, detail.len() as u32);
            buf.extend_from_slice(detail.as_bytes());
        }
    }
}

/// Inverse of [`encode_err`].
fn decode_err(c: &mut Cursor<'_>) -> Option<CommError> {
    Some(match c.u8()? {
        0 => CommError::PeerDead {
            rank: c.u64()? as usize,
        },
        1 => CommError::Timeout {
            src: c.u64()? as usize,
            tag: c.u64()?,
            waited_ms: c.u64()?,
        },
        2 => CommError::Corrupt {
            src: c.u64()? as usize,
            tag: c.u64()?,
        },
        3 => {
            let origin = c.u64()? as usize;
            let n = c.u32()? as usize;
            let reason = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
            CommError::Aborted { origin, reason }
        }
        4 => CommError::InvalidTag { tag: c.u64()? },
        5 => {
            let rank = c.u64()? as usize;
            let n = c.u32()? as usize;
            let detail = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
            CommError::MembershipMismatch { rank, detail }
        }
        _ => return None,
    })
}

// ---- Endpoint ------------------------------------------------------------

#[derive(Debug)]
enum WriterCmd {
    Data(Frame),
    Abort(usize, CommError),
    Goodbye,
}

#[derive(Debug)]
struct PeerLink {
    /// Commands for the writer thread; a closed queue means the writer
    /// exited on a write error (the peer's socket is gone).
    cmd: Sender<WriterCmd>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    /// Kept to force-shutdown the socket at teardown, unblocking a reader
    /// parked in `read_exact`.
    sock: TcpStream,
    /// Commands enqueued but not yet written by the writer thread.
    /// Incremented *before* the enqueue and decremented by the writer after
    /// the dequeue, so it can never transiently underflow; sampled into the
    /// per-peer send-queue-depth gauges at `send` time.
    depth: Arc<AtomicU64>,
}

impl PeerLink {
    /// Enqueue a command with depth accounting. Returns the queue depth
    /// including this command, or `Err` if the writer is gone.
    fn enqueue(&self, cmd: WriterCmd) -> Result<u64, ()> {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.cmd.send(cmd) {
            Ok(()) => Ok(d),
            Err(_) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(())
            }
        }
    }
}

/// One rank's endpoint of a localhost TCP mesh. See the module docs for
/// the wire format and threading model.
///
/// The abort cell is *per endpoint* (per process): remote failures reach it
/// via ABORT frames or unclean disconnects observed by the reader threads,
/// giving every rank the same poison-pill unwind latency the shared
/// in-process cell provides.
#[derive(Debug)]
pub struct TcpTransport {
    rank: usize,
    world: usize,
    abort: Arc<AbortCell>,
    /// `links[peer]`; `None` at this endpoint's own rank.
    links: Vec<Option<PeerLink>>,
    /// `inbox[src]`: per-source FIFO fed by src's reader thread.
    inbox: Vec<Receiver<Frame>>,
    /// Set before teardown so reader threads treat the socket shutdown as
    /// deliberate rather than a peer crash.
    closing: Arc<AtomicBool>,
    /// Shared with the reader/writer threads; armed by [`Transport::instrument`].
    probe: ProbeCell,
    shut: bool,
}

/// Bind a fresh ephemeral listener on 127.0.0.1 for one rank.
///
/// # Errors
/// Any socket error from the OS.
pub fn bind_localhost() -> std::io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

impl TcpTransport {
    /// Establish the full mesh for `rank`: connect to every lower rank,
    /// accept a connection from every higher rank, handshake each stream,
    /// and spawn the per-peer reader/writer threads. `addrs[r]` is rank
    /// r's listener address; `listener` is this rank's own (already bound,
    /// so peers can connect the moment they learn the address). Every rank
    /// must be establishing concurrently; `deadline` bounds the whole
    /// procedure.
    ///
    /// # Errors
    /// Connection, handshake, or timeout failures.
    pub fn establish(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        timeout: Duration,
    ) -> std::io::Result<TcpTransport> {
        let world = addrs.len();
        assert!(rank < world, "rank {rank} out of range for world {world}");
        let deadline = Instant::now() + timeout;

        // Accept from higher ranks on a helper thread while this thread
        // connects to lower ranks — both directions progress concurrently,
        // so the mesh cannot deadlock on establishment order.
        let n_accept = world - rank - 1;
        let acceptor = std::thread::spawn(move || -> std::io::Result<Vec<(usize, TcpStream)>> {
            listener.set_nonblocking(true)?;
            let mut got = Vec::with_capacity(n_accept);
            while got.len() < n_accept {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        let peer = read_hello(&s, deadline)?;
                        got.push((peer, s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io_err(format!(
                                "timed out accepting peers ({}/{n_accept})",
                                got.len()
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(got)
        });

        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        for (peer, addr) in addrs.iter().enumerate().take(rank) {
            let s = connect_with_retry(addr, deadline)?;
            write_hello(&s, rank)?;
            streams[peer] = Some(s);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| io_err("acceptor thread panicked".into()))??;
        for (peer, s) in accepted {
            if peer <= rank || peer >= world || streams[peer].is_some() {
                return Err(io_err(format!("unexpected hello from rank {peer}")));
            }
            streams[peer] = Some(s);
        }

        let abort = Arc::new(AbortCell::default());
        let closing = Arc::new(AtomicBool::new(false));
        let probe: ProbeCell = Arc::new(OnceLock::new());
        let mut links = Vec::with_capacity(world);
        let mut inbox = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(sock) = slot else {
                links.push(None);
                // Self-slot: a pre-closed channel, like the mpsc mesh's
                // dummy pair, so indexing stays direct.
                inbox.push(channel().1);
                continue;
            };
            sock.set_nodelay(true)?;
            let (frame_tx, frame_rx) = channel::<Frame>();
            let (cmd_tx, cmd_rx) = channel::<WriterCmd>();
            let depth = Arc::new(AtomicU64::new(0));
            let writer = {
                let sock = sock.try_clone()?;
                let depth = depth.clone();
                let probe = probe.clone();
                std::thread::spawn(move || writer_loop(sock, cmd_rx, depth, probe))
            };
            let reader = {
                let sock = sock.try_clone()?;
                let abort = abort.clone();
                let closing = closing.clone();
                let probe = probe.clone();
                std::thread::spawn(move || reader_loop(sock, peer, frame_tx, abort, closing, probe))
            };
            links.push(Some(PeerLink {
                cmd: cmd_tx,
                writer: Some(writer),
                reader: Some(reader),
                sock,
                depth,
            }));
            inbox.push(frame_rx);
        }
        Ok(TcpTransport {
            rank,
            world,
            abort,
            links,
            inbox,
            closing,
            probe,
            shut: false,
        })
    }

    fn teardown(&mut self, announce: WriterCmd) {
        if self.shut {
            return;
        }
        self.shut = true;
        self.closing.store(true, Ordering::Release);
        let mut relays = 0u64;
        for link in self.links.iter().flatten() {
            // A closed queue means the writer already exited; nothing to
            // announce to a peer that is gone.
            if let WriterCmd::Abort(o, e) = &announce {
                if link.enqueue(WriterCmd::Abort(*o, e.clone())).is_ok() {
                    relays += 1;
                }
            }
            // Goodbye always follows (even after an abort announcement):
            // it is the only command that makes the writer thread exit, and
            // teardown joins the writer next — an abort without a trailing
            // goodbye would deadlock that join.
            let _ = link.enqueue(WriterCmd::Goodbye);
        }
        if let Some(p) = self.probe.get() {
            p.add(Counter::TcpAbortRelays, relays);
        }
        for link in self.links.iter_mut().flatten() {
            if let Some(w) = link.writer.take() {
                let _ = w.join();
            }
            // Unblock the reader if it is parked in read_exact; with the
            // closing flag set it exits quietly instead of reporting a
            // peer death.
            let _ = link.sock.shutdown(Shutdown::Both);
            if let Some(r) = link.reader.take() {
                let _ = r.join();
            }
        }
    }
}

impl Transport for TcpTransport {
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
        let link = self.links[dst].as_ref().ok_or(TransportClosed)?;
        let depth = link
            .enqueue(WriterCmd::Data(frame))
            .map_err(|()| TransportClosed)?;
        if let Some(p) = self.probe.get() {
            p.set(Gauge::TcpSendQueueDepth, depth as f64);
            p.set_max(Gauge::TcpSendQueueDepthMax, depth as f64);
        }
        Ok(())
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

    fn propagate_abort(&mut self, origin: usize, cause: &CommError) {
        let mut relays = 0u64;
        for link in self.links.iter().flatten() {
            if link
                .enqueue(WriterCmd::Abort(origin, cause.clone()))
                .is_ok()
            {
                relays += 1;
            }
        }
        if let Some(p) = self.probe.get() {
            p.add(Counter::TcpAbortRelays, relays);
        }
    }

    fn instrument(&mut self, probe: Probe) {
        // First attach wins; the reader/writer threads pick the probe up
        // on their next frame.
        let _ = self.probe.set(probe);
    }

    fn shutdown(&mut self) {
        // A teardown during a panic unwind is a crash, not a clean close:
        // tell the peers why, so they surface a typed Aborted instead of
        // inferring a silent death.
        if std::thread::panicking() {
            self.teardown(WriterCmd::Abort(
                self.rank,
                CommError::Aborted {
                    origin: self.rank,
                    reason: "rank panicked".into(),
                },
            ));
        } else {
            self.teardown(WriterCmd::Goodbye);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Write one frame buffer, flushing so it hits the wire immediately.
fn write_frame(sock: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    sock.write_all(buf)?;
    sock.flush()
}

fn writer_loop(
    mut sock: TcpStream,
    cmd_rx: Receiver<WriterCmd>,
    depth: Arc<AtomicU64>,
    probe: ProbeCell,
) {
    let mut buf = Vec::new();
    while let Ok(cmd) = cmd_rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        match cmd {
            WriterCmd::Data(frame) => {
                // The delivery deadline crosses the boundary as remaining
                // delay, captured now — queue time already elapsed it.
                let delay = frame
                    .deliver_at
                    .map(|at| at.saturating_duration_since(Instant::now()));
                encode_data(&frame, delay, &mut buf);
                if write_frame(&mut sock, &buf).is_err() {
                    // Peer gone: exit so the command queue closes and the
                    // next send reports TransportClosed (→ PeerDead).
                    return;
                }
                if let Some(p) = probe.get() {
                    p.incr(Counter::TcpDataFramesSent);
                }
            }
            WriterCmd::Abort(origin, err) => {
                buf.clear();
                put_u32(&mut buf, 0);
                buf.push(KIND_ABORT);
                put_u32(&mut buf, origin as u32);
                encode_err(&err, &mut buf);
                let len = (buf.len() - 4) as u32;
                buf[0..4].copy_from_slice(&len.to_le_bytes());
                if write_frame(&mut sock, &buf).is_err() {
                    return;
                }
                if let Some(p) = probe.get() {
                    p.incr(Counter::TcpAbortFramesSent);
                }
            }
            WriterCmd::Goodbye => {
                if write_frame(&mut sock, &[1, 0, 0, 0, KIND_GOODBYE]).is_ok() {
                    if let Some(p) = probe.get() {
                        p.incr(Counter::TcpGoodbyeFramesSent);
                    }
                }
                let _ = sock.shutdown(Shutdown::Write);
                return;
            }
        }
    }
}

fn reader_loop(
    mut sock: TcpStream,
    src: usize,
    frame_tx: Sender<Frame>,
    abort: Arc<AbortCell>,
    closing: Arc<AtomicBool>,
    probe: ProbeCell,
) {
    let mut header = [0u8; 4];
    let mut body = Vec::new();
    loop {
        if sock.read_exact(&mut header).is_err() {
            // EOF or reset without a goodbye: a crashed peer — unless this
            // endpoint is tearing the socket down itself.
            if !closing.load(Ordering::Acquire) {
                abort.trip(src, CommError::PeerDead { rank: src });
            }
            return;
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME {
            if !closing.load(Ordering::Acquire) {
                abort.trip(src, CommError::PeerDead { rank: src });
            }
            return;
        }
        body.resize(len as usize, 0);
        if sock.read_exact(&mut body).is_err() {
            if !closing.load(Ordering::Acquire) {
                abort.trip(src, CommError::PeerDead { rank: src });
            }
            return;
        }
        match body[0] {
            KIND_DATA => match decode_data(&body[1..]) {
                // A receiver gone just means this endpoint stopped
                // consuming; keep draining so the peer can finish sending.
                Some(f) => {
                    if let Some(p) = probe.get() {
                        p.incr(Counter::TcpDataFramesRecv);
                    }
                    let _ = frame_tx.send(f);
                }
                None => {
                    if !closing.load(Ordering::Acquire) {
                        abort.trip(src, CommError::PeerDead { rank: src });
                    }
                    return;
                }
            },
            KIND_ABORT => {
                if let Some(p) = probe.get() {
                    p.incr(Counter::TcpAbortFramesRecv);
                }
                let mut c = Cursor::new(&body[1..]);
                if let (Some(origin), Some(err)) = (c.u32(), decode_err(&mut c)) {
                    abort.trip(origin as usize, err);
                } else if !closing.load(Ordering::Acquire) {
                    abort.trip(src, CommError::PeerDead { rank: src });
                }
                // Keep reading: data queued behind the abort is dropped by
                // the unwinding layers above, but a goodbye may follow.
            }
            KIND_GOODBYE => {
                // Clean close: dropping frame_tx makes further receives
                // from this source read as Closed (→ PeerDead upstream,
                // matching the in-process disconnect semantics).
                if let Some(p) = probe.get() {
                    p.incr(Counter::TcpGoodbyeFramesRecv);
                }
                return;
            }
            _ => {
                if !closing.load(Ordering::Acquire) {
                    abort.trip(src, CommError::PeerDead { rank: src });
                }
                return;
            }
        }
    }
}

fn write_hello(mut sock: &TcpStream, rank: usize) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(9);
    put_u32(&mut buf, MAGIC);
    buf.push(PROTO_VERSION);
    put_u32(&mut buf, rank as u32);
    sock.write_all(&buf)?;
    sock.flush()
}

fn read_hello(mut sock: &TcpStream, deadline: Instant) -> std::io::Result<usize> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or_else(|| io_err("timed out before handshake".into()))?;
    sock.set_read_timeout(Some(remaining))?;
    let mut buf = [0u8; 9];
    sock.read_exact(&mut buf)?;
    sock.set_read_timeout(None)?;
    let mut c = Cursor::new(&buf);
    let magic = c.u32().unwrap();
    let version = c.u8().unwrap();
    let rank = c.u32().unwrap() as usize;
    if magic != MAGIC {
        return Err(io_err(format!("bad handshake magic {magic:#x}")));
    }
    if version != PROTO_VERSION {
        return Err(io_err(format!("unsupported protocol version {version}")));
    }
    Ok(rank)
}

fn connect_with_retry(addr: &SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| io_err(format!("timed out connecting to {addr}")))?;
        match TcpStream::connect_timeout(addr, remaining) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // The peer's listener may not be up yet; retry until the
                // deadline.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Default establishment budget for a localhost mesh.
pub const LOCAL_ESTABLISH_TIMEOUT: Duration = Duration::from_secs(20);

/// Wire up a full localhost mesh of `p` endpoints inside this process (one
/// thread per rank once handed to a runner, but every byte crosses a real
/// socket). Panics on socket errors — local test plumbing, not a serving
/// path.
pub fn local_mesh(p: usize) -> Vec<TcpTransport> {
    assert!(p >= 1, "world size must be at least 1");
    let listeners: Vec<TcpListener> = (0..p)
        .map(|r| bind_localhost().unwrap_or_else(|e| panic!("rank {r}: bind failed: {e}")))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener has a local addr"))
        .collect();
    let mut out: Vec<Option<TcpTransport>> = (0..p).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = &addrs;
                s.spawn(move || {
                    TcpTransport::establish(rank, addrs, listener, LOCAL_ESTABLISH_TIMEOUT)
                })
            })
            .collect();
        for (rank, (h, slot)) in handles.into_iter().zip(out.iter_mut()).enumerate() {
            let t = h
                .join()
                .unwrap_or_else(|_| panic!("rank {rank}: establish panicked"))
                .unwrap_or_else(|e| panic!("rank {rank}: establish failed: {e}"));
            *slot = Some(t);
        }
    });
    out.into_iter()
        .map(|t| t.expect("all ranks built"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::checksum_of;

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
    fn data_frame_round_trips() {
        let mut f = frame(42, vec![1.5, -0.0, f32::MIN_POSITIVE]);
        f.collective = true;
        f.epoch = 3;
        let mut buf = Vec::new();
        encode_data(&f, None, &mut buf);
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        assert_eq!(buf[4], KIND_DATA);
        let g = decode_data(&buf[5..]).expect("well-formed frame");
        assert_eq!(g.tag, 42);
        assert_eq!(g.checksum, f.checksum);
        assert_eq!(g.wire, f.wire);
        assert_eq!(g.epoch, 3, "epoch must survive the wire");
        assert!(g.collective);
        assert!(g.deliver_at.is_none());
        assert_eq!(
            g.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            f.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "payload bits must survive the wire exactly"
        );
        assert!(g.verify());
    }

    /// Edge bit patterns every packing must carry: ±0, ±inf, NaN, f32
    /// subnormals, and values that land on f16/bf16 subnormals or overflow.
    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        -1e-40,
        5.960_464_5e-8, // smallest f16 subnormal
        -6.0e-5,        // f16 subnormal
        1e-39,          // bf16 subnormal
        65504.0,
        -1e38,
    ];

    /// Every special followed by `n` arbitrary bit patterns drawn from
    /// `seed`, quantized through `wire` as the send path does.
    fn payload(seed: u64, n: usize, wire: DType) -> Vec<f32> {
        let mut state = seed;
        let random = (0..n).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f32::from_bits((state >> 32) as u32)
        });
        let data: Vec<f32> = SPECIALS.into_iter().chain(random).collect();
        wp_tensor::dtype::quantized_to_vec(&data, wire)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn packed_payloads_round_trip_bit_for_bit(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..80,
            wire in proptest::prelude::prop::sample::select(vec![DType::F32, DType::F16, DType::BF16]),
        ) {
            let data = payload(seed, n, wire);
            let f = Frame {
                tag: seed,
                checksum: checksum_of(&data),
                wire,
                data,
                deliver_at: None,
                collective: seed & 1 == 1,
                epoch: seed >> 60,
            };
            let mut buf = Vec::new();
            encode_data(&f, None, &mut buf);
            let g = decode_data(&buf[5..]).expect("well-formed frame");
            proptest::prop_assert_eq!(bits(&g.data), bits(&f.data), "{} n={}", wire, n);
            proptest::prop_assert_eq!(g.wire, wire);
            proptest::prop_assert_eq!(g.collective, f.collective);
            proptest::prop_assert!(g.verify(), "{} payload must pass its checksum", wire);
        }
    }

    #[test]
    fn encoded_frame_is_wire_bytes_plus_fixed_header() {
        let mut buf = vec![0xAB; 4096]; // a reused, larger buffer
        for wire in [DType::F32, DType::F16, DType::BF16] {
            for n in [0usize, 1, 7, 300] {
                let mut f = frame(3, vec![1.5; n]);
                f.wire = wire;
                encode_data(&f, Some(Duration::from_millis(1)), &mut buf);
                assert_eq!(
                    buf.len() as u64,
                    DATA_HEADER as u64 + f.wire_bytes(),
                    "{wire} n={n}: bytes on the socket must be the metered size plus the header"
                );
                assert_eq!(f.wire_bytes(), (n * wire.size_bytes()) as u64);
                let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
                assert_eq!(len, buf.len() - 4, "{wire} n={n}: length prefix");
                assert_eq!(bits(&decode_data(&buf[5..]).unwrap().data), bits(&f.data));
            }
        }
    }

    #[test]
    fn unknown_wire_dtype_code_is_a_framing_error() {
        let mut buf = Vec::new();
        encode_data(&frame(1, vec![1.0]), None, &mut buf);
        buf[21] |= FLAG_DTYPE_MASK; // code 3: no such dtype
        assert!(decode_data(&buf[5..]).is_none());
    }

    #[test]
    fn hello_from_an_older_protocol_is_rejected() {
        let listener = bind_localhost().unwrap();
        let addr = listener.local_addr().unwrap();
        let mut old = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        put_u32(&mut hello, MAGIC);
        hello.push(2);
        put_u32(&mut hello, 0);
        old.write_all(&hello).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let err = read_hello(&accepted, Instant::now() + Duration::from_secs(5))
            .expect_err("a version-2 peer must be refused");
        assert!(err.to_string().contains("version 2"), "{err}");
        // The current version is accepted on the same path.
        let mut new = TcpStream::connect(addr).unwrap();
        write_hello(&new, 1).unwrap();
        new.flush().unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert_eq!(
            read_hello(&accepted, Instant::now() + Duration::from_secs(5)).unwrap(),
            1
        );
    }

    #[test]
    fn delay_crosses_as_remaining_duration() {
        let f = frame(0, vec![]);
        let mut buf = Vec::new();
        encode_data(&f, Some(Duration::from_millis(5)), &mut buf);
        let g = decode_data(&buf[5..]).unwrap();
        let at = g.deliver_at.expect("delay flag set");
        let d = at.saturating_duration_since(Instant::now());
        assert!(d <= Duration::from_millis(5));
        assert!(d > Duration::from_millis(2), "re-anchored near 5ms");
    }

    #[test]
    fn err_codec_round_trips_every_variant() {
        let errs = [
            CommError::PeerDead { rank: 3 },
            CommError::Timeout {
                src: 1,
                tag: 99,
                waited_ms: 1234,
            },
            CommError::Corrupt { src: 2, tag: 7 },
            CommError::Aborted {
                origin: 0,
                reason: "rank panicked: éü".into(),
            },
            CommError::InvalidTag { tag: 1 << 48 },
            CommError::MembershipMismatch {
                rank: 2,
                detail: "epoch 1 vs 2".into(),
            },
        ];
        for e in errs {
            let mut buf = Vec::new();
            encode_err(&e, &mut buf);
            let got = decode_err(&mut Cursor::new(&buf)).expect("decodable");
            assert_eq!(got, e);
        }
    }

    #[test]
    fn truncated_frames_decode_as_none() {
        let f = frame(1, vec![2.0, 3.0]);
        let mut buf = Vec::new();
        encode_data(&f, None, &mut buf);
        for cut in 5..buf.len() {
            assert!(decode_data(&buf[5..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn local_mesh_moves_frames_over_real_sockets() {
        let mut mesh = local_mesh(2);
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.send(1, frame(7, vec![1.0, 2.0])).unwrap();
        a.send(1, frame(8, vec![3.0])).unwrap();
        match b.recv_timeout(0, Duration::from_secs(5)) {
            RecvWait::Frame(f) => {
                assert_eq!(f.tag, 7);
                assert!(f.verify());
            }
            other => panic!("expected first frame, got {other:?}"),
        }
        match b.recv_timeout(0, Duration::from_secs(5)) {
            RecvWait::Frame(f) => assert_eq!(f.tag, 8, "per-source FIFO"),
            other => panic!("expected second frame, got {other:?}"),
        }
        drop(a); // clean close: goodbye
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match b.try_recv(0) {
                RecvPoll::Closed => break,
                RecvPoll::Empty if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => panic!("expected Closed after goodbye, got {other:?}"),
            }
        }
        assert!(
            !b.abort_cell().is_tripped(),
            "a clean goodbye must not read as a crash"
        );
    }

    #[test]
    fn abort_frame_trips_the_remote_cell() {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        let cause = CommError::Corrupt { src: 1, tag: 9 };
        a.propagate_abort(0, &cause);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.abort_cell().cause_for(0), cause);
    }

    #[test]
    fn instrumented_endpoints_count_wire_frames() {
        use wp_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new(2);
        let mut mesh = local_mesh(2);
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.instrument(Probe::new(None, Some(registry.handle(0))));
        b.instrument(Probe::new(None, Some(registry.handle(1))));
        a.send(1, frame(7, vec![1.0, 2.0])).unwrap();
        a.send(1, frame(8, vec![3.0])).unwrap();
        for want in [7u64, 8] {
            match b.recv_timeout(0, Duration::from_secs(5)) {
                RecvWait::Frame(f) => assert_eq!(f.tag, want),
                other => panic!("expected frame {want}, got {other:?}"),
            }
        }
        // Clean closes join the reader/writer threads, so the counters are
        // final once both endpoints are dropped.
        drop(a);
        drop(b);
        let snap = registry.snapshot();
        assert_eq!(snap.ranks[0].counter(Counter::TcpDataFramesSent), 2);
        assert_eq!(snap.ranks[1].counter(Counter::TcpDataFramesRecv), 2);
        assert_eq!(snap.ranks[0].counter(Counter::TcpGoodbyeFramesSent), 1);
        assert_eq!(snap.ranks[1].counter(Counter::TcpGoodbyeFramesRecv), 1);
        assert!(
            snap.ranks[0].gauge(Gauge::TcpSendQueueDepthMax) >= 1.0,
            "send must sample the per-peer queue depth"
        );
        assert_eq!(snap.ranks[0].counter(Counter::TcpAbortRelays), 0);
    }

    #[test]
    fn abort_relays_are_counted() {
        use wp_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new(2);
        let b = mesh_pair_b_only(&registry);
        drop(b);
        let snap = registry.snapshot();
        assert_eq!(snap.ranks[0].counter(Counter::TcpAbortRelays), 1);
    }

    /// Build a 2-mesh, instrument rank 0, fire `propagate_abort` from it,
    /// wait for the cell to trip on rank 1, and return rank 1's endpoint
    /// (rank 0 is dropped cleanly here).
    fn mesh_pair_b_only(registry: &wp_metrics::MetricsRegistry) -> TcpTransport {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.instrument(Probe::new(None, Some(registry.handle(0))));
        a.propagate_abort(0, &CommError::Corrupt { src: 1, tag: 9 });
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        b
    }

    /// Regression: an abort-announcing teardown (the panic-unwind path)
    /// must terminate — the writer thread only exits on Goodbye, so the
    /// abort announcement has to be followed by one or the join deadlocks.
    #[test]
    fn abort_announcing_teardown_terminates_and_reaches_the_peer() {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        let cause = CommError::Aborted {
            origin: 0,
            reason: "rank panicked".into(),
        };
        // Direct call (Drop can only reach this branch mid-unwind, which a
        // test cannot do without also failing); must return promptly.
        a.teardown(WriterCmd::Abort(0, cause.clone()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.abort_cell().cause_for(1), cause);
    }
}
