//! The one frame both journal segments and checkpoint files hold:
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload]
//! ```
//!
//! big-endian, the CRC over the payload alone. A segment is
//! `SEGMENT_MAGIC` followed by frames; a checkpoint file is
//! `CHECKPOINT_MAGIC` followed by exactly one. What a bad frame means
//! (a torn tail to truncate, or corruption) is the reader's caller's
//! to decide.

use crate::crc32::crc32;

/// Bytes before a frame's payload: its length and its CRC.
const FRAME_HEADER: usize = 8;

/// Append one frame holding what `encode` writes.
pub(crate) fn put_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let payload = &out[at + FRAME_HEADER..];
    let len = u32::try_from(payload.len()).expect("a frame's payload is under 4 GiB");
    let crc = crc32(payload);
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    out[at + 4..at + FRAME_HEADER].copy_from_slice(&crc.to_be_bytes());
}

/// The frame starting at `buf[at]`: its payload and the offset just past
/// it. A frame cut short, longer than `max_len`, or whose CRC does not
/// match is an `Err` naming which.
pub(crate) fn read_frame(
    buf: &[u8],
    at: usize,
    max_len: u32,
) -> Result<(&[u8], usize), &'static str> {
    let Some(header) = buf.get(at..at + FRAME_HEADER) else {
        return Err("partial frame header");
    };
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
    let start = at + FRAME_HEADER;
    if len > max_len || buf.len() - start < len as usize {
        return Err("partial frame payload");
    }
    let end = start + len as usize;
    let payload = &buf[start..end];
    if crc32(payload) != crc {
        return Err("frame CRC mismatch");
    }
    Ok((payload, end))
}
