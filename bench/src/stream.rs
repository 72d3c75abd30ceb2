//! The request stream: a pure function of `--seed`. The cluster only ever
//! sees the generated frames; the seed itself never reaches it.

use hs1_types::codec::Encode;
use hs1_types::{ClientId, Message, Transaction};
use hs1_workloads::{Workload, YcsbGen};

/// The single BFT client every workload drives.
pub const CLIENT: ClientId = ClientId(1);

/// A request the client gave up waiting for goes out again under a fresh
/// transaction id (the replicas drop a repeated one): the same sequence
/// number with the attempt, counted from 1, above this bit.
const ATTEMPT_SHIFT: u32 = 40;

/// Which request of the stream a wire sequence number belongs to.
pub fn request_of(wire_seq: u64) -> u64 {
    wire_seq & ((1 << ATTEMPT_SHIFT) - 1)
}

/// Paper §7 YCSB shape with a 50/50 read/write mix: zipfian (θ = 0.99)
/// over 600k records.
pub struct RequestStream {
    gen: YcsbGen,
    next_seq: u64,
    /// A second copy of the generator that trails the first, to produce a
    /// request again, and the sequence number it will produce next.
    behind: YcsbGen,
    behind_seq: u64,
}

impl RequestStream {
    pub fn new(seed: u64) -> RequestStream {
        let gen = YcsbGen::new(YcsbGen::PAPER_RECORDS, 0.99, 0.5, seed);
        RequestStream { behind: gen.clone(), gen, next_seq: 0, behind_seq: 0 }
    }

    /// Sequence number the next request will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn next_tx(&mut self) -> Transaction {
        let tx = self.gen.next_tx(CLIENT, self.next_seq);
        self.next_seq += 1;
        tx
    }

    /// Append the next request to `buf` as one wire frame.
    pub fn push_next_frame(&mut self, buf: &mut Vec<u8>) {
        let tx = self.next_tx();
        push_frame(buf, &Message::Request(tx));
    }

    /// Request `seq` again, as its `attempt`-th resubmission. Requests
    /// must be asked for in ascending order (the oldest undecided one only
    /// ever moves forward).
    pub fn resubmission(&mut self, seq: u64, attempt: u64) -> Transaction {
        assert!(self.behind_seq <= seq && seq < self.next_seq, "request {seq} is not replayable");
        let wire_seq = seq | attempt << ATTEMPT_SHIFT;
        while self.behind_seq < seq {
            self.behind.next_tx(CLIENT, 0);
            self.behind_seq += 1;
        }
        // Leave the copy where it is: the same request may be asked for
        // a second time.
        self.behind.clone().next_tx(CLIENT, wire_seq)
    }
}

/// Append `msg` to `buf` in `hs1-net`'s framing (u32 big-endian length,
/// then the body) without an intermediate allocation.
pub fn push_frame(buf: &mut Vec<u8>, msg: &Message) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    msg.encode(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_net::framing::{encode_frame, FrameReader};

    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = RequestStream::new(seed);
        let mut buf = Vec::new();
        for _ in 0..n {
            s.push_next_frame(&mut buf);
        }
        buf
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        assert_eq!(bytes(7, 5000), bytes(7, 5000));
        assert_ne!(bytes(7, 5000), bytes(8, 5000));
    }

    #[test]
    fn a_resubmission_is_the_same_operation_under_a_fresh_id() {
        let mut s = RequestStream::new(9);
        let sent: Vec<Transaction> = (0..500).map(|_| s.next_tx()).collect();
        for (seq, attempt) in [(3u64, 1u64), (3, 2), (120, 1), (499, 1)] {
            let again = s.resubmission(seq, attempt);
            assert_eq!(again.op, sent[seq as usize].op);
            assert_eq!(again.id.client, CLIENT);
            assert_ne!(again.id.seq, seq);
            assert_eq!(request_of(again.id.seq), seq);
        }
        assert_eq!(request_of(77), 77);
    }

    #[test]
    fn frames_are_what_the_reactor_parses() {
        let (mut framed, mut plain) = (RequestStream::new(3), RequestStream::new(3));
        let mut buf = Vec::new();
        let mut want = Vec::new();
        for seq in 0..100u64 {
            assert_eq!(framed.next_seq(), seq);
            framed.push_next_frame(&mut buf);
            let tx = plain.next_tx();
            assert_eq!((tx.id.client, tx.id.seq), (CLIENT, seq));
            want.push(Message::Request(tx));
        }
        let mut got = Vec::new();
        FrameReader::new().push_bytes(&buf, &mut got).expect("well-formed frames");
        assert_eq!(got, want);
        // Byte-for-byte the frame `Mesh` itself would build.
        let mut one = Vec::new();
        push_frame(&mut one, &want[0]);
        assert_eq!(&one[..], &encode_frame(&want[0])[..]);
    }
}
