//! Length-prefixed message framing with an identification handshake.
//!
//! A dialer first writes the 5-byte hello ([`hello_bytes`] /
//! `parse_hello`) that says whether it is a replica or a client. Then
//! come frames, built by the reactor's nonblocking pieces:
//! [`encode_frame`] (encode once, fan out by reference), `FrameQueue`
//! (a bounded outbound queue that coalesces many frames into one
//! `writev`-style [`Write::write_vectored`] call and resumes cleanly
//! across partial writes), and [`FrameReader`] (incremental reassembly
//! of frames from arbitrarily-split reads, rejecting a hostile length).

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

use hs1_types::codec::{Decode, Encode};
use hs1_types::Message;

/// Who is on the other end of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerKind {
    Replica(u32),
    Client(u32),
}

/// The 5-byte handshake for `kind`: tag byte + big-endian id.
pub fn hello_bytes(kind: PeerKind) -> [u8; 5] {
    let (tag, id) = match kind {
        PeerKind::Replica(id) => (0u8, id),
        PeerKind::Client(id) => (1u8, id),
    };
    let mut buf = [0u8; 5];
    buf[0] = tag;
    buf[1..5].copy_from_slice(&id.to_be_bytes());
    buf
}

/// Decode the 5-byte handshake.
pub(crate) fn parse_hello(buf: &[u8; 5]) -> std::io::Result<PeerKind> {
    let id = u32::from_be_bytes(buf[1..5].try_into().expect("4 bytes"));
    match buf[0] {
        0 => Ok(PeerKind::Replica(id)),
        1 => Ok(PeerKind::Client(id)),
        t => {
            Err(std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad hello tag {t}")))
        }
    }
}

/// Maximum accepted frame (hostile-peer defense).
const MAX_FRAME: u32 = 64 << 20;

/// A wire frame: length prefix + encoded body, behind an `Arc` so a
/// broadcast encodes once and every per-peer queue shares the bytes.
pub(crate) type Frame = Arc<[u8]>;

/// Encode `msg` into one shareable frame: the body is encoded once,
/// behind a placeholder the length is patched into.
pub fn encode_frame(msg: &Message) -> Frame {
    // Room for a vote or NewView with its certificate; proposals grow it.
    encode_frame_in(&mut Vec::with_capacity(256), msg)
}

/// [`encode_frame`] through `buf`, a buffer the caller keeps: the frame
/// is then the one allocation an encode makes.
pub(crate) fn encode_frame_in(buf: &mut Vec<u8>, msg: &Message) -> Frame {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    msg.encode(buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_be_bytes());
    Frame::from(&buf[..])
}

/// Most frames handed to one `write_vectored` call. 64 small consensus
/// messages per syscall is the coalescing win; more slices buy little
/// and cost stack.
const WRITEV_BATCH: usize = 64;

/// Outcome of one [`FrameQueue::write_to`] attempt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteProgress {
    /// Bytes accepted by the sink.
    pub bytes: u64,
    /// Frames fully flushed (a partially-written head is not counted).
    pub frames: u64,
    /// `write_vectored` calls issued (syscalls on a real socket).
    pub calls: u64,
    /// The sink reported `WouldBlock` (the queue may still be nonempty).
    pub would_block: bool,
}

/// Bounded per-peer outbound queue with writev coalescing.
///
/// Frames are flushed strictly in order; a partial write leaves a byte
/// offset into the head frame and the next attempt resumes there, so
/// frame boundaries survive arbitrary split points. Backpressure is
/// explicit: [`FrameQueue::enforce_caps`] sheds **oldest-first** (the
/// engines tolerate loss of stale consensus messages far better than
/// blocking the proposer), never touching a head frame whose prefix is
/// already on the wire — shedding that one would desynchronize the
/// peer's framing.
#[derive(Default)]
pub(crate) struct FrameQueue {
    frames: VecDeque<Frame>,
    /// Bytes of `frames[0]` already written to the sink.
    head_offset: usize,
    /// Total unsent bytes across all queued frames (minus `head_offset`).
    bytes: usize,
}

impl FrameQueue {
    pub(crate) fn new() -> FrameQueue {
        FrameQueue::default()
    }

    pub(crate) fn push(&mut self, frame: Frame) {
        self.bytes += frame.len();
        self.frames.push_back(frame);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queued frames (including a partially-written head).
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Unsent bytes still queued.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Shed oldest frames until the queue is within `max_frames` /
    /// `max_bytes`. Returns the number of frames shed. The in-flight
    /// head frame (offset > 0) and the newest frame are never shed: the
    /// head must finish for framing integrity, and shedding the frame
    /// that was just pushed would turn the queue into a black hole.
    pub(crate) fn enforce_caps(&mut self, max_frames: usize, max_bytes: usize) -> u64 {
        let mut shed = 0u64;
        while (self.frames.len() > max_frames || self.bytes > max_bytes) && self.frames.len() > 1 {
            let idx = usize::from(self.head_offset > 0);
            if idx + 1 >= self.frames.len() {
                break; // only the in-flight head and the newest remain
            }
            let dropped = self.frames.remove(idx).expect("index checked");
            self.bytes -= dropped.len();
            shed += 1;
        }
        shed
    }

    /// Drop a partially-written head frame (connection died mid-frame;
    /// resending its prefix on a fresh connection would corrupt the
    /// peer's framing, and the tail alone is not a valid frame).
    /// Returns true if a frame was abandoned.
    pub(crate) fn abandon_partial(&mut self) -> bool {
        if self.head_offset == 0 {
            return false;
        }
        let head = self.frames.pop_front().expect("offset implies a head");
        self.bytes -= head.len() - self.head_offset;
        self.head_offset = 0;
        true
    }

    /// Drop everything (mesh shutdown).
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.head_offset = 0;
        self.bytes = 0;
    }

    /// Flush as much as the sink accepts, coalescing up to
    /// `WRITEV_BATCH` (64) frames per `write_vectored` call. Stops on
    /// `WouldBlock` (reported in the progress, not as an error) or when
    /// the queue drains; `Interrupted` is retried. The slices live in an
    /// array on the stack, so a flush allocates nothing.
    pub(crate) fn write_to(&mut self, sink: &mut impl Write) -> std::io::Result<WriteProgress> {
        let mut progress = WriteProgress::default();
        while !self.frames.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITEV_BATCH];
            let mut count = 0;
            for (slice, frame) in slices.iter_mut().zip(&self.frames) {
                let start = if count == 0 { self.head_offset } else { 0 };
                *slice = IoSlice::new(&frame[start..]);
                count += 1;
            }
            let written = match sink.write_vectored(&slices[..count]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "sink accepted zero bytes",
                    ));
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    progress.would_block = true;
                    return Ok(progress);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            progress.calls += 1;
            progress.bytes += written as u64;
            self.bytes -= written;
            let mut remaining = written;
            while remaining > 0 {
                let head_left = self.frames[0].len() - self.head_offset;
                if remaining >= head_left {
                    remaining -= head_left;
                    self.frames.pop_front();
                    self.head_offset = 0;
                    progress.frames += 1;
                } else {
                    self.head_offset += remaining;
                    remaining = 0;
                }
            }
        }
        Ok(progress)
    }
}

/// Bytes drained from the socket per [`FrameReader::read_from`] call
/// before yielding back to the event loop (keeps one firehose peer from
/// starving the rest of the poll set).
const READ_BUDGET: usize = 256 * 1024;

/// Bytes one `read` asks the socket for: the size of the read buffer a
/// reactor shares among its connections.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reassembly for nonblocking reads.
///
/// Feed it whatever the socket yields — single bytes, half a length
/// prefix, ten frames at once — and take complete messages out. Whole
/// frames are decoded where the bytes lie; only a frame that is not
/// complete yet is copied, into the reader's own buffer, until the rest
/// arrives. Frame boundaries are reconstructed exactly; a length prefix
/// above the `MAX_FRAME` limit (64 MiB) is rejected as `InvalidData`
/// before any body bytes are buffered (hostile-length defense).
#[derive(Default)]
pub struct FrameReader {
    /// The start of one frame, received and not complete yet.
    partial: Vec<u8>,
}

/// One socket drain's outcome; the frames it decoded went to the caller's
/// vector.
#[derive(Debug, Default)]
pub(crate) struct ReadOutcome {
    pub bytes: u64,
    /// `read` calls issued.
    pub calls: u64,
    /// The peer closed the connection cleanly.
    pub eof: bool,
}

/// The body length a frame's 4-byte prefix states, rejected past
/// [`MAX_FRAME`].
fn frame_len(prefix: &[u8]) -> std::io::Result<usize> {
    let len = u32::from_be_bytes(prefix[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    Ok(len as usize)
}

/// Decode one frame's body.
fn decode_body(body: &[u8]) -> std::io::Result<Message> {
    Message::decode_exact(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Decode every whole frame at the front of `bytes` into `out`, and
/// return how many bytes they took.
fn decode_frames(bytes: &[u8], out: &mut Vec<Message>) -> std::io::Result<usize> {
    let mut at = 0;
    while bytes.len() - at >= 4 {
        let end = at + 4 + frame_len(&bytes[at..])?;
        if bytes.len() < end {
            break;
        }
        out.push(decode_body(&bytes[at + 4..end])?);
        at = end;
    }
    Ok(at)
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Take `bytes` and decode every frame they complete into `out`.
    pub fn push_bytes(&mut self, mut bytes: &[u8], out: &mut Vec<Message>) -> std::io::Result<()> {
        // First finish the frame begun in an earlier call, taking no more
        // than it lacks: its prefix, then its body.
        while !self.partial.is_empty() {
            let have = self.partial.len();
            let want = if have < 4 { 4 } else { 4 + frame_len(&self.partial)? };
            if have == want {
                out.push(decode_body(&self.partial[4..])?);
                self.partial.clear();
            } else if bytes.is_empty() {
                return Ok(());
            } else {
                let take = (want - have).min(bytes.len());
                self.partial.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
            }
        }
        let used = decode_frames(bytes, out)?;
        self.partial.extend_from_slice(&bytes[used..]);
        Ok(())
    }

    /// Drain the (nonblocking) stream through `buf`, a read buffer the
    /// caller shares among its connections, until a read comes back
    /// short, EOF, or the per-call read budget is spent, decoding every
    /// complete frame into `out`, a vector the caller keeps from read to
    /// read. Nothing of one call is left in `buf` for the next. A read
    /// that does not fill `buf` has emptied a stream socket, so no second
    /// `read` is spent on learning `WouldBlock`: the caller polls
    /// level-triggered and is told of bytes or EOF that arrive later.
    pub(crate) fn read_from(
        &mut self,
        stream: &mut impl Read,
        buf: &mut [u8],
        out: &mut Vec<Message>,
    ) -> std::io::Result<ReadOutcome> {
        let mut outcome = ReadOutcome::default();
        while (outcome.bytes as usize) < READ_BUDGET {
            match stream.read(buf) {
                Ok(0) => {
                    outcome.eof = true;
                    break;
                }
                Ok(n) => {
                    outcome.calls += 1;
                    outcome.bytes += n as u64;
                    self.push_bytes(&buf[..n], out)?;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::Transaction;
    use std::net::{TcpListener, TcpStream};

    /// The hello names both kinds of peer and nothing else.
    #[test]
    fn hello_roundtrips_for_both_kinds() {
        for kind in [PeerKind::Replica(3), PeerKind::Client(7), PeerKind::Client(u32::MAX)] {
            assert_eq!(parse_hello(&hello_bytes(kind)).expect("a valid hello"), kind);
        }
        let err = parse_hello(&[2, 0, 0, 0, 7]).expect_err("tag 2 names no peer");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A sink that accepts at most `cap` bytes per write call — drives
    /// every partial-write resumption path in [`FrameQueue`].
    struct Chokepoint {
        accepted: Vec<u8>,
        cap: usize,
        calls: u64,
        /// The slices handed to each `write_vectored` call.
        batches: Vec<usize>,
    }

    impl Chokepoint {
        fn new(cap: usize) -> Chokepoint {
            Chokepoint { accepted: Vec::new(), cap, calls: 0, batches: Vec::new() }
        }
    }

    impl Write for Chokepoint {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            self.batches.push(bufs.len());
            let mut budget = self.cap;
            let mut written = 0;
            for b in bufs {
                if budget == 0 {
                    break;
                }
                let n = b.len().min(budget);
                self.accepted.extend_from_slice(&b[..n]);
                written += n;
                budget -= n;
            }
            Ok(written)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn test_messages(n: usize) -> Vec<Message> {
        (0..n)
            .map(|i| Message::Request(Transaction::kv_write(i as u32, i as u64, i as u64 * 7, 1)))
            .collect()
    }

    /// Decode a byte stream that must contain exactly `want` frames in
    /// order.
    fn decode_stream(bytes: &[u8], want: &[Message]) {
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        reader.push_bytes(bytes, &mut got).expect("clean stream");
        assert_eq!(got, want, "frame boundaries preserved");
    }

    /// A frame is the body's big-endian length, then the body, for small
    /// messages and for ones that outgrow the first allocation.
    #[test]
    fn frame_is_the_length_then_the_body() {
        let txs: Vec<Transaction> = (0..200).map(|i| Transaction::kv_write(0, i, i, i)).collect();
        let block = hs1_types::Block::new(
            hs1_types::ReplicaId(0),
            hs1_types::View(1),
            hs1_types::Slot::FIRST,
            hs1_types::Certificate::genesis(),
            txs,
        );
        let propose = Message::Propose(hs1_types::message::ProposeMsg {
            block: Arc::new(block),
            commit_cert: None,
        });
        for msg in [test_messages(1).remove(0), propose] {
            let body = msg.encoded();
            let mut want = (body.len() as u32).to_be_bytes().to_vec();
            want.extend_from_slice(&body);
            assert_eq!(&encode_frame(&msg)[..], &want[..]);
        }
    }

    #[test]
    fn frame_queue_coalesces_into_one_vectored_call() {
        let msgs = test_messages(10);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let mut sink = Chokepoint::new(usize::MAX);
        let progress = q.write_to(&mut sink).unwrap();
        assert_eq!(progress.calls, 1, "ten frames, one writev");
        assert_eq!(progress.frames, 10);
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
        decode_stream(&sink.accepted, &msgs);
    }

    #[test]
    fn frame_boundaries_survive_every_split_point() {
        // Write the same 7 frames through sinks that accept 1, 2, 3, 5,
        // 13, ... bytes per call: every possible split point inside a
        // length prefix and inside a body is exercised.
        let msgs = test_messages(7);
        for cap in [1usize, 2, 3, 5, 13, 31, 64, 127, 1000] {
            let mut q = FrameQueue::new();
            for m in &msgs {
                q.push(encode_frame(m));
            }
            let total: usize = q.bytes();
            let mut sink = Chokepoint::new(cap);
            let progress = q.write_to(&mut sink).unwrap();
            assert!(q.is_empty(), "cap {cap}: queue drained");
            assert_eq!(progress.bytes as usize, total, "cap {cap}: all bytes written");
            assert_eq!(progress.frames, 7, "cap {cap}");
            decode_stream(&sink.accepted, &msgs);
        }
    }

    /// A sink that accepts `cap` bytes then reports `WouldBlock`,
    /// modeling a full kernel send buffer.
    struct Saturating {
        inner: Chokepoint,
        budget: usize,
    }

    impl Write for Saturating {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"));
            }
            self.inner.cap = self.budget;
            let n = self.inner.write_vectored(bufs)?;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_write_resumes_mid_frame_across_attempts() {
        let msgs = test_messages(4);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let frame_len = encode_frame(&msgs[0]).len();
        // First attempt: the sink takes one and a half frames then blocks.
        let mut sink = Saturating { inner: Chokepoint::new(0), budget: frame_len + frame_len / 2 };
        let p1 = q.write_to(&mut sink).unwrap();
        assert!(p1.would_block);
        assert_eq!(p1.frames, 1, "one frame fully flushed");
        assert!(!q.is_empty());
        // Second attempt on a reopened sink budget: everything drains and
        // the byte stream still parses as exactly the original frames.
        sink.budget = usize::MAX;
        let p2 = q.write_to(&mut sink).unwrap();
        assert!(!p2.would_block);
        assert_eq!(p1.frames + p2.frames, 4);
        decode_stream(&sink.inner.accepted, &msgs);
    }

    /// A queue one frame past a batch, its head half written, drains
    /// byte-exact in two calls of at most `WRITEV_BATCH` slices: the
    /// slices of a call sit in a fixed array, and the second call starts
    /// where the first one's array ended.
    #[test]
    fn a_queue_one_past_the_batch_drains_in_two_calls() {
        let msgs = test_messages(WRITEV_BATCH + 1);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let half = encode_frame(&msgs[0]).len() / 2;
        let mut sink = Saturating { inner: Chokepoint::new(0), budget: half };
        let p = q.write_to(&mut sink).unwrap();
        assert!(p.would_block && p.frames == 0 && p.bytes == half as u64);
        sink.budget = usize::MAX;
        sink.inner.batches.clear();
        let p = q.write_to(&mut sink).unwrap();
        assert_eq!((p.calls, p.frames as usize), (2, WRITEV_BATCH + 1));
        assert_eq!(sink.inner.batches, [WRITEV_BATCH, 1]);
        assert!(q.is_empty() && q.bytes() == 0);
        decode_stream(&sink.inner.accepted, &msgs);
    }

    #[test]
    fn shed_oldest_first_never_the_inflight_head() {
        let msgs = test_messages(6);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        // Start writing frame 0 so its prefix is "on the wire".
        let mut sink = Saturating { inner: Chokepoint::new(0), budget: 2 };
        let p = q.write_to(&mut sink).unwrap();
        assert!(p.would_block && p.frames == 0);
        // Cap of 3 frames: sheds must take the oldest *unsent* frames
        // (1, 2, 3), keeping the in-flight head and the newest.
        let shed = q.enforce_caps(3, usize::MAX);
        assert_eq!(shed, 3);
        assert_eq!(q.len(), 3);
        sink.budget = usize::MAX;
        q.write_to(&mut sink).unwrap();
        decode_stream(&sink.inner.accepted, &[msgs[0].clone(), msgs[4].clone(), msgs[5].clone()]);
    }

    #[test]
    fn byte_cap_sheds_and_newest_survives() {
        let msgs = test_messages(5);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let shed = q.enforce_caps(usize::MAX, 1);
        // Caps below a single frame still keep the newest frame: a
        // queue must never become a black hole.
        assert_eq!(shed, 4);
        assert_eq!(q.len(), 1);
        let mut sink = Chokepoint::new(usize::MAX);
        q.write_to(&mut sink).unwrap();
        decode_stream(&sink.accepted, &msgs[4..]);
    }

    #[test]
    fn abandon_partial_resynchronizes_after_disconnect() {
        let msgs = test_messages(3);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let mut sink = Saturating { inner: Chokepoint::new(0), budget: 3 };
        q.write_to(&mut sink).unwrap();
        // Connection died with 3 bytes of frame 0 sent. A fresh
        // connection must never see the rest of frame 0.
        assert!(q.abandon_partial());
        assert!(!q.abandon_partial(), "idempotent");
        let mut fresh = Chokepoint::new(usize::MAX);
        q.write_to(&mut fresh).unwrap();
        decode_stream(&fresh.accepted, &msgs[1..]);
    }

    #[test]
    fn frame_reader_rejects_hostile_length() {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        // A 4 GiB length prefix must be rejected from the prefix alone.
        let err = reader.push_bytes(&u32::MAX.to_be_bytes(), &mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(out.is_empty());
    }

    #[test]
    fn frame_reader_reassembles_byte_at_a_time() {
        let msgs = test_messages(3);
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in &stream {
            reader.push_bytes(std::slice::from_ref(b), &mut out).unwrap();
        }
        assert_eq!(out, msgs);
    }

    /// A hostile length whose prefix arrives in two reads is rejected
    /// once the prefix is whole, with no body byte buffered.
    #[test]
    fn a_hostile_length_split_across_pushes_is_rejected_from_its_prefix() {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let frame = encode_frame(&test_messages(1)[0]);
        let mut bytes = frame.to_vec();
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        reader.push_bytes(&bytes[..bytes.len() - 2], &mut out).expect("half a prefix");
        assert_eq!((out.len(), reader.partial.len()), (1, 2));
        let mut rest = bytes[bytes.len() - 2..].to_vec();
        rest.extend_from_slice(&[0; 64]);
        let err = reader.push_bytes(&rest, &mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(reader.partial.len(), 4, "the prefix alone was buffered");
    }

    /// A stream that hands out `chunks`, one a `read`, then `WouldBlock`.
    struct Chunks(VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.0.pop_front().ok_or(std::io::ErrorKind::WouldBlock)?;
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    /// Two connections read through one buffer, each stream cut at every
    /// byte offset and the reads interleaved: each reader gives back its
    /// own frames, whole and in order, whatever the buffer held from the
    /// other connection's read (it is overwritten with junk after each).
    #[test]
    fn two_connections_share_one_read_buffer_at_every_split() {
        let frames = |msgs: &[Message]| -> Vec<u8> {
            msgs.iter().flat_map(|m| encode_frame(m).to_vec()).collect()
        };
        let block = hs1_types::Block::new(
            hs1_types::ReplicaId(2),
            hs1_types::View(3),
            hs1_types::Slot::FIRST,
            hs1_types::Certificate::genesis(),
            (0..20).map(|i| Transaction::kv_write(9, i, i, i)).collect(),
        );
        let propose = Message::Propose(hs1_types::message::ProposeMsg {
            block: Arc::new(block),
            commit_cert: None,
        });
        let mut a_msgs = test_messages(3);
        a_msgs.insert(1, propose);
        let b_msgs: Vec<Message> =
            (0..4).map(|i| Message::Request(Transaction::kv_write(77, 1000 + i, i, 5))).collect();
        let (a, b) = (frames(&a_msgs), frames(&b_msgs));
        let mut buf = [0u8; READ_CHUNK];
        for cut in 0..=a.len() {
            let at_b = cut % (b.len() + 1);
            let (mut ra, mut rb) = (FrameReader::new(), FrameReader::new());
            let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
            let reads =
                [(true, &a[..cut]), (false, &b[..at_b]), (true, &a[cut..]), (false, &b[at_b..])];
            for (first, bytes) in reads.into_iter().filter(|(_, bytes)| !bytes.is_empty()) {
                let mut stream = Chunks(VecDeque::from([bytes.to_vec()]));
                let (reader, got) =
                    if first { (&mut ra, &mut got_a) } else { (&mut rb, &mut got_b) };
                reader.read_from(&mut stream, &mut buf, got).expect("clean stream");
                buf.fill(0xA5);
            }
            assert_eq!(got_a, a_msgs, "cut {cut}");
            assert_eq!(got_b, b_msgs, "cut {cut}");
            assert!(ra.partial.is_empty() && rb.partial.is_empty(), "cut {cut}");
        }
    }

    /// A nonblocking stream with `data` in its receive buffer that counts
    /// every `read` issued, including those that find nothing.
    struct CountingStream {
        data: Vec<u8>,
        at: usize,
        reads: u64,
        closed: bool,
    }

    impl CountingStream {
        fn holding(msgs: &[Message]) -> CountingStream {
            let data = msgs.iter().flat_map(|m| encode_frame(m).to_vec()).collect();
            CountingStream { data, at: 0, reads: 0, closed: false }
        }
    }

    impl Read for CountingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.data.len() - self.at);
            if n == 0 && !self.closed {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn read_from_stops_at_a_short_read() {
        // One frame waiting: one `read`, not a second to hear `WouldBlock`.
        let msgs = test_messages(1);
        let mut stream = CountingStream::holding(&msgs);
        let (mut reader, mut got) = (FrameReader::new(), Vec::new());
        let mut buf = [0; READ_CHUNK];
        let o = reader.read_from(&mut stream, &mut buf, &mut got).unwrap();
        assert_eq!((&got, o.calls, stream.reads, o.eof), (&msgs, 1, 1, false));

        // An empty socket (spurious wakeup) is one `read` and no progress.
        got.clear();
        let o = reader.read_from(&mut stream, &mut buf, &mut got).unwrap();
        assert_eq!((got.len(), o.calls, o.bytes, stream.reads, o.eof), (0, 0, 0, 2, false));

        // The peer closes after the short read: the next call sees EOF.
        stream.closed = true;
        let o = reader.read_from(&mut stream, &mut buf, &mut got).unwrap();
        assert!(o.eof && got.is_empty());
    }

    #[test]
    fn read_from_keeps_reading_after_a_full_chunk() {
        // A little over 40 KiB: two full 16 KiB chunks and a short third.
        let mut msgs = test_messages(1);
        while CountingStream::holding(&msgs).data.len() < 40 * 1024 {
            msgs.extend(test_messages(64));
        }
        let mut stream = CountingStream::holding(&msgs);
        assert!(stream.data.len() < 48 * 1024);
        let mut got = Vec::new();
        let o = FrameReader::new().read_from(&mut stream, &mut [0; READ_CHUNK], &mut got).unwrap();
        assert_eq!((o.calls, stream.reads), (3, 3));
        assert_eq!(o.bytes as usize, stream.data.len());
        assert_eq!(got, msgs);
    }

    #[test]
    fn frame_queue_then_reader_roundtrip_over_socket() {
        // End to end over a real nonblocking socket pair: the writev
        // side and the reassembly side agree on every boundary.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();
        rx.set_nonblocking(true).unwrap();

        let msgs = test_messages(40);
        let mut q = FrameQueue::new();
        for m in &msgs {
            q.push(encode_frame(m));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut buf = [0; READ_CHUNK];
        let mut tx = tx;
        let mut rx = rx;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < msgs.len() {
            assert!(std::time::Instant::now() < deadline, "socket roundtrip stalled");
            let _ = q.write_to(&mut tx).unwrap();
            let outcome = reader.read_from(&mut rx, &mut buf, &mut got).unwrap();
            if q.is_empty() && outcome.bytes == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(got, msgs);
    }
}
