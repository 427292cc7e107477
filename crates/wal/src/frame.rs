//! Logical WAL operations and their wire encoding.
//!
//! Each frame is `[len u32 LE][crc32 u32 LE][payload]`; the CRC covers the
//! payload only. Payloads:
//!
//! ```text
//! insert: [tag=1][lsn u64][global u64][shard u64][count u32][count × f64]
//! delete: [tag=2][lsn u64][global u64][shard u64]
//! ```
//!
//! Every frame carries an **LSN** — a log sequence number that is monotone
//! within one store's log (allocated from a single counter under the
//! mutation guard). A store, single index or shard group, keeps one log
//! and replays it in file order, which restores exactly the acknowledged
//! prefix of the mutation schedule. `global` is the global ordinal of the
//! affected sequence and `shard` the shard that owns it: placement can
//! depend on state replay cannot reconstruct (live loads, a snapshot ahead
//! of its manifest), so a shard group reads it from the frame. A single
//! index writes `0` and never reads the slot — logs whose third slot holds
//! anything else (earlier builds stored the ordinal there) replay the same.

use crate::crc32::crc32;

/// Hard ceiling on one frame's payload (16 MiB ≈ a two-million-point
/// series). A length prefix above this is treated as a torn tail, not an
/// allocation request — it bounds what a corrupt length byte can make
/// [`decode_frames`] try to read.
pub const MAX_PAYLOAD: u32 = 16 << 20;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// One logged mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// A sequence was appended to the index.
    Insert {
        /// Globally monotone log sequence number.
        lsn: u64,
        /// Global ordinal the insert was acknowledged with.
        global: u64,
        /// Shard that owns the sequence (`0`, and unread, when unsharded).
        shard: u64,
        /// The raw series values, so replay can re-run the insert.
        values: Vec<f64>,
    },
    /// A sequence was tombstoned.
    Delete {
        /// Globally monotone log sequence number.
        lsn: u64,
        /// Global ordinal that was deleted.
        global: u64,
        /// Shard that owns the sequence (`0`, and unread, when unsharded).
        shard: u64,
    },
}

impl WalOp {
    /// The frame's log sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            Self::Insert { lsn, .. } | Self::Delete { lsn, .. } => *lsn,
        }
    }
}

/// Encodes `op` as a complete frame (length prefix + CRC + payload).
pub fn encode_frame(op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::new();
    match op {
        WalOp::Insert {
            lsn,
            global,
            shard,
            values,
        } => {
            payload.push(TAG_INSERT);
            payload.extend_from_slice(&lsn.to_le_bytes());
            payload.extend_from_slice(&global.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                payload.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        WalOp::Delete { lsn, global, shard } => {
            payload.push(TAG_DELETE);
            payload.extend_from_slice(&lsn.to_le_bytes());
            payload.extend_from_slice(&global.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn read_u64(payload: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        payload.get(at..at + 8)?.try_into().ok()?,
    ))
}

/// Decodes one payload (past the length/CRC header). `None` means the
/// payload is malformed — callers treat that exactly like a CRC failure.
fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let tag = *payload.first()?;
    let lsn = read_u64(payload, 1)?;
    let global = read_u64(payload, 9)?;
    let shard = read_u64(payload, 17)?;
    match tag {
        TAG_INSERT => {
            let count = u32::from_le_bytes(payload.get(25..29)?.try_into().ok()?) as usize;
            let bytes = payload.get(29..)?;
            if bytes.len() != count * 8 {
                return None;
            }
            let values = bytes
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect();
            Some(WalOp::Insert {
                lsn,
                global,
                shard,
                values,
            })
        }
        TAG_DELETE if payload.len() == 25 => Some(WalOp::Delete { lsn, global, shard }),
        _ => None,
    }
}

/// The one frame decoder: an incremental decoder over any byte stream of
/// concatenated frames. Replay runs it over the log read into memory
/// ([`decode_frames`]); the replication catch-up reader
/// ([`crate::Wal::frames_since_hinted`]) runs it over the file, so a
/// primary can serialise frames to a follower without slurping the whole
/// log into memory at once.
///
/// Iteration yields every intact frame in order and then ends. A torn
/// tail (short header, oversized length, CRC mismatch, undecodable
/// payload) ends the stream, where replay truncates; an I/O error from
/// the underlying reader surfaces as one `Err` item and also ends the
/// stream.
pub struct FrameIter<R> {
    reader: R,
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    at: usize,
    /// Total bytes of frames yielded so far (see [`Self::consumed`]).
    consumed: u64,
    eof: bool,
    done: bool,
}

impl<R: std::io::Read> FrameIter<R> {
    /// Starts decoding frames from `reader` (positioned past any file
    /// header — the stream must start at a frame boundary).
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            at: 0,
            consumed: 0,
            eof: false,
            done: false,
        }
    }

    /// Total encoded bytes of every frame yielded so far — i.e. the
    /// stream offset of the next frame boundary. Lets a catch-up reader
    /// remember where a served frame ended and resume there instead of
    /// rescanning the log from the top.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Tries to decode one frame from the buffered bytes. `None` means
    /// more bytes are needed (or the tail is torn — distinguished by
    /// `eof`).
    fn decode_buffered(&mut self) -> Option<WalOp> {
        let buf = &self.buf[self.at..];
        if buf.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            self.done = true; // corrupt length: torn tail, stream over
            return None;
        }
        let end = 8 + len as usize;
        if buf.len() < end {
            return None;
        }
        let payload = &buf[8..end];
        if crc32(payload) != crc {
            self.done = true;
            return None;
        }
        match decode_payload(payload) {
            Some(op) => {
                self.at += end;
                self.consumed += end as u64;
                Some(op)
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

impl<R: std::io::Read> Iterator for FrameIter<R> {
    type Item = Result<WalOp, std::io::Error>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if let Some(op) = self.decode_buffered() {
                return Some(Ok(op));
            }
            if self.done || self.eof {
                // A partial frame at EOF is a torn tail: end of stream.
                self.done = true;
                return None;
            }
            // Compact consumed bytes, then pull the next chunk.
            self.buf.drain(..self.at);
            self.at = 0;
            let mut chunk = [0u8; 64 * 1024];
            match self.reader.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Walks a buffer of concatenated frames, returning every intact frame and
/// the byte offset where the intact prefix ends. Anything after that
/// offset — a short header, a length overrunning the buffer, a CRC
/// mismatch, an undecodable payload — is the torn tail a crash mid-append
/// leaves behind; the caller truncates the file there. This is
/// [`FrameIter`] run over the slice, whose reads never fail.
pub fn decode_frames(buf: &[u8]) -> (Vec<WalOp>, usize) {
    let mut frames = FrameIter::new(buf);
    let ops = frames.by_ref().map_while(Result::ok).collect();
    (ops, frames.consumed() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                lsn: 1,
                global: 7,
                shard: 3,
                values: vec![0.25, -1.5, f64::MIN_POSITIVE, 1e300],
            },
            WalOp::Delete {
                lsn: 2,
                global: 4,
                shard: 1,
            },
            WalOp::Insert {
                lsn: 3,
                global: 8,
                shard: 4,
                values: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            buf.extend_from_slice(&encode_frame(op));
        }
        let (back, consumed) = decode_frames(&buf);
        assert_eq!(back, ops);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn every_cut_is_a_prefix() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            buf.extend_from_slice(&encode_frame(op));
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let (back, consumed) = decode_frames(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(back.len(), whole, "cut at {cut}");
            assert_eq!(back.as_slice(), &ops[..whole], "cut at {cut}");
            assert_eq!(consumed, boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_stops_decode() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        for op in &ops {
            buf.extend_from_slice(&encode_frame(op));
        }
        let first = encode_frame(&ops[0]).len();
        // Flip a payload byte of the second frame: frame 1 survives,
        // frames 2..N are dropped.
        buf[first + 12] ^= 0x40;
        let (back, consumed) = decode_frames(&buf);
        assert_eq!(back.as_slice(), &ops[..1]);
        assert_eq!(consumed, first);
    }

    #[test]
    fn frame_iter_stops_at_torn_tail_on_every_cut() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            buf.extend_from_slice(&encode_frame(op));
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let got: Vec<WalOp> = FrameIter::new(std::io::Cursor::new(&buf[..cut]))
                .map(|r| r.unwrap())
                .collect();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.as_slice(), &ops[..whole], "cut at {cut}");
        }
    }

    #[test]
    fn frame_iter_surfaces_read_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("injected"))
            }
        }
        let mut it = FrameIter::new(Failing);
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "stream ends after the error");
    }

    #[test]
    fn absurd_length_prefix_is_a_torn_tail() {
        let mut buf = encode_frame(&WalOp::Delete {
            lsn: 9,
            global: 0,
            shard: 0,
        });
        let keep = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let (back, consumed) = decode_frames(&buf);
        assert_eq!(back.len(), 1);
        assert_eq!(consumed, keep);
    }
}
