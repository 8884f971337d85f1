//! Length-prefixed framing over a byte stream.
//!
//! A logical *message* is `(kind, payload)`. On the wire it is one or
//! more *frames*, each:
//!
//! ```text
//! +------+-------+----------------+---------------+
//! | kind | flags | len (u32, LE)  | payload bytes |
//! | 1 B  | 1 B   | 4 B            | len B         |
//! +------+-------+----------------+---------------+
//! ```
//!
//! Payloads larger than [`MAX_FRAME_PAYLOAD`] are split across frames;
//! every frame but the last sets [`FLAG_MORE`] and repeats the kind, so a
//! receiver can reassemble without knowing the total size up front.
//! Decoding is strictly checked: truncated input, oversized frames,
//! runaway messages, and kind changes mid-message are all *errors*, never
//! panics — these bytes come from the network.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Bytes of frame header preceding each payload chunk.
pub const HEADER_LEN: usize = 6;

/// Flag bit: more frames of this message follow.
pub const FLAG_MORE: u8 = 0x01;

/// Largest payload a single frame may carry (1 MiB).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Largest reassembled message accepted by [`read_message`] (512 MiB) —
/// a backstop against hostile or corrupt length prefixes.
pub const MAX_MESSAGE_BYTES: usize = 512 << 20;

/// Errors raised while reading frames off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes truncation as
    /// `UnexpectedEof` and timeouts as `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// A frame header declared a payload above [`MAX_FRAME_PAYLOAD`].
    OversizedFrame {
        /// The declared length.
        len: u32,
    },
    /// A multi-frame message exceeded [`MAX_MESSAGE_BYTES`].
    OversizedMessage {
        /// Bytes accumulated when the limit tripped.
        total: usize,
    },
    /// A continuation frame changed the message kind mid-stream.
    KindMismatch {
        /// Kind of the first frame.
        first: u8,
        /// Kind of the offending continuation frame.
        got: u8,
    },
    /// Reserved flag bits were set.
    BadFlags(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::OversizedFrame { len } => {
                write!(f, "frame payload {len} exceeds {MAX_FRAME_PAYLOAD} bytes")
            }
            FrameError::OversizedMessage { total } => {
                write!(
                    f,
                    "message exceeds {MAX_MESSAGE_BYTES} bytes ({total} read)"
                )
            }
            FrameError::KindMismatch { first, got } => {
                write!(f, "continuation frame kind {got} != initial kind {first}")
            }
            FrameError::BadFlags(flags) => write!(f, "reserved flag bits set: {flags:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one message, splitting into frames as needed. Returns the total
/// bytes put on the wire (headers included). Does not flush. Each frame
/// goes out as one vectored write of its header and payload slice, so
/// an unbuffered socket sees one send per frame and the payload is
/// never copied.
pub fn write_message<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<u64> {
    let mut written = 0u64;
    let mut chunks = payload.chunks(MAX_FRAME_PAYLOAD);
    let mut chunk = chunks.next().unwrap_or(&[]);
    loop {
        let next = chunks.next();
        let flags = if next.is_some() { FLAG_MORE } else { 0 };
        let mut header = [0u8; HEADER_LEN];
        header[0] = kind;
        header[1] = flags;
        header[2..6].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        write_all_vectored(w, &mut [IoSlice::new(&header), IoSlice::new(chunk)])?;
        written += (HEADER_LEN + chunk.len()) as u64;
        match next {
            Some(c) => chunk = c,
            None => return Ok(written),
        }
    }
}

/// `write_all` over several buffers: retries partial and interrupted
/// writes until every byte of `bufs` is written.
fn write_all_vectored<W: Write>(w: &mut W, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one message, reassembling continuation frames. Returns the kind,
/// the payload, and the total bytes consumed off the wire.
pub fn read_message<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>, u64), FrameError> {
    read_message_limited(r, MAX_MESSAGE_BYTES)
}

/// Try to parse one complete message from the front of `buf` without
/// consuming from any stream — the incremental entry point the reactor's
/// non-blocking read path uses (bytes arrive in arbitrary chunks; the
/// caller keeps an accumulation buffer and drains `consumed` bytes on
/// success).
///
/// * `Ok(Some((kind, payload, consumed)))` — a full message (all frames
///   through the final one) is present in the first `consumed` bytes.
/// * `Ok(None)` — the prefix is valid so far but incomplete; read more.
/// * `Err(_)` — the prefix can never become a valid message (oversized
///   frame, kind change mid-message, reserved flags, reassembly cap).
pub fn parse_message(
    buf: &[u8],
    max_message_bytes: usize,
) -> Result<Option<(u8, Vec<u8>, usize)>, FrameError> {
    let mut off = 0usize;
    let mut payload = Vec::new();
    let mut first_kind: Option<u8> = None;
    loop {
        if buf.len() < off + HEADER_LEN {
            return Ok(None);
        }
        let header = &buf[off..off + HEADER_LEN];
        let kind = header[0];
        let flags = header[1];
        let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
        if flags & !FLAG_MORE != 0 {
            return Err(FrameError::BadFlags(flags));
        }
        if len as usize > MAX_FRAME_PAYLOAD {
            return Err(FrameError::OversizedFrame { len });
        }
        match first_kind {
            None => first_kind = Some(kind),
            Some(first) if first != kind => {
                return Err(FrameError::KindMismatch { first, got: kind })
            }
            Some(_) => {}
        }
        if payload.len() + len as usize > max_message_bytes {
            return Err(FrameError::OversizedMessage {
                total: payload.len() + len as usize,
            });
        }
        if buf.len() < off + HEADER_LEN + len as usize {
            return Ok(None);
        }
        payload.extend_from_slice(&buf[off + HEADER_LEN..off + HEADER_LEN + len as usize]);
        off += HEADER_LEN + len as usize;
        if flags & FLAG_MORE == 0 {
            let kind = first_kind.expect("first_kind set on first iteration");
            return Ok(Some((kind, payload, off)));
        }
    }
}

/// [`read_message`] with an explicit reassembly cap instead of
/// [`MAX_MESSAGE_BYTES`] — the 512 MiB production limit is untestable
/// directly, so tests exercise the overflow path through this.
pub fn read_message_limited<R: Read>(
    r: &mut R,
    max_message_bytes: usize,
) -> Result<(u8, Vec<u8>, u64), FrameError> {
    let mut payload = Vec::new();
    let mut consumed = 0u64;
    let mut first_kind: Option<u8> = None;
    loop {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let kind = header[0];
        let flags = header[1];
        let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
        if flags & !FLAG_MORE != 0 {
            return Err(FrameError::BadFlags(flags));
        }
        if len as usize > MAX_FRAME_PAYLOAD {
            return Err(FrameError::OversizedFrame { len });
        }
        match first_kind {
            None => first_kind = Some(kind),
            Some(first) if first != kind => {
                return Err(FrameError::KindMismatch { first, got: kind })
            }
            Some(_) => {}
        }
        if payload.len() + len as usize > max_message_bytes {
            return Err(FrameError::OversizedMessage {
                total: payload.len() + len as usize,
            });
        }
        let start = payload.len();
        payload.resize(start + len as usize, 0);
        r.read_exact(&mut payload[start..])?;
        consumed += (HEADER_LEN + len as usize) as u64;
        if flags & FLAG_MORE == 0 {
            let kind = first_kind.expect("first_kind set on first iteration");
            return Ok((kind, payload, consumed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        let mut wire = Vec::new();
        let written = write_message(&mut wire, kind, payload).unwrap();
        assert_eq!(written as usize, wire.len());
        let (k, p, consumed) = read_message(&mut wire.as_slice()).unwrap();
        assert_eq!(consumed as usize, wire.len());
        (k, p)
    }

    #[test]
    fn single_frame_round_trip() {
        let (k, p) = round_trip(7, b"hello");
        assert_eq!(k, 7);
        assert_eq!(p, b"hello");
    }

    #[test]
    fn empty_payload_round_trip() {
        let (k, p) = round_trip(3, b"");
        assert_eq!(k, 3);
        assert!(p.is_empty());
    }

    #[test]
    fn multi_frame_round_trip() {
        let payload: Vec<u8> = (0..(2 * MAX_FRAME_PAYLOAD + 17))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut wire = Vec::new();
        write_message(&mut wire, 9, &payload).unwrap();
        // Three frames: 1 MiB + 1 MiB + 17 B, each with a header.
        assert_eq!(wire.len(), payload.len() + 3 * HEADER_LEN);
        assert_eq!(wire[1] & FLAG_MORE, FLAG_MORE, "first frame continues");
        let (k, p, _) = read_message(&mut wire.as_slice()).unwrap();
        assert_eq!(k, 9);
        assert_eq!(p, payload);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut wire = Vec::new();
        write_message(&mut wire, 1, b"payload bytes").unwrap();
        for cut in 0..wire.len() {
            let err = read_message(&mut &wire[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn oversized_message_is_an_error() {
        // Two frames of 4 B against a 6 B cap: the second frame tips it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&[2, FLAG_MORE, 4, 0, 0, 0]);
        wire.extend_from_slice(b"abcd");
        wire.extend_from_slice(&[2, 0, 4, 0, 0, 0]);
        wire.extend_from_slice(b"efgh");
        assert!(matches!(
            read_message_limited(&mut wire.as_slice(), 6),
            Err(FrameError::OversizedMessage { total: 8 })
        ));
        // The same bytes are fine under the production limit.
        let (k, p, _) = read_message(&mut wire.as_slice()).unwrap();
        assert_eq!((k, p.as_slice()), (2, b"abcdefgh".as_slice()));
    }

    #[test]
    fn oversized_frame_is_an_error() {
        let mut wire = vec![1u8, 0];
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_message(&mut wire.as_slice()),
            Err(FrameError::OversizedFrame { .. })
        ));
    }

    #[test]
    fn kind_change_mid_message_is_an_error() {
        let mut wire = Vec::new();
        // Frame 1: kind 5, MORE set, empty payload.
        wire.extend_from_slice(&[5, FLAG_MORE, 0, 0, 0, 0]);
        // Frame 2: kind 6, final.
        wire.extend_from_slice(&[6, 0, 0, 0, 0, 0]);
        assert!(matches!(
            read_message(&mut wire.as_slice()),
            Err(FrameError::KindMismatch { first: 5, got: 6 })
        ));
    }

    #[test]
    fn parse_message_handles_every_split_point() {
        // A three-frame message presented one byte at a time: every
        // prefix is "incomplete", never an error, and the full buffer
        // parses to the original message with the exact consumed count.
        let payload: Vec<u8> = (0..(2 * MAX_FRAME_PAYLOAD + 17))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut wire = Vec::new();
        write_message(&mut wire, 9, &payload).unwrap();
        // Sampling every cut of a 2 MiB wire image is slow; probe the
        // interesting region (frame boundaries) plus a stride elsewhere.
        let boundary = HEADER_LEN + MAX_FRAME_PAYLOAD;
        let mut cuts: Vec<usize> = (0..wire.len()).step_by(65_536).collect();
        cuts.extend(boundary.saturating_sub(3)..boundary + 3);
        cuts.extend(2 * boundary - 3..2 * boundary + 3);
        for cut in cuts {
            assert!(
                parse_message(&wire[..cut], MAX_MESSAGE_BYTES)
                    .unwrap()
                    .is_none(),
                "cut {cut} should be incomplete"
            );
        }
        let (kind, got, consumed) = parse_message(&wire, MAX_MESSAGE_BYTES).unwrap().unwrap();
        assert_eq!((kind, consumed), (9, wire.len()));
        assert_eq!(got, payload);
    }

    #[test]
    fn parse_message_leaves_trailing_bytes_unconsumed() {
        let mut wire = Vec::new();
        write_message(&mut wire, 4, b"first").unwrap();
        let first_len = wire.len();
        write_message(&mut wire, 5, b"second").unwrap();
        let (kind, payload, consumed) = parse_message(&wire, MAX_MESSAGE_BYTES).unwrap().unwrap();
        assert_eq!(
            (kind, payload.as_slice(), consumed),
            (4, b"first".as_slice(), first_len)
        );
        let (kind, payload, _) = parse_message(&wire[consumed..], MAX_MESSAGE_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!((kind, payload.as_slice()), (5, b"second".as_slice()));
    }

    #[test]
    fn parse_message_rejects_hopeless_prefixes_early() {
        // Oversized frame header: rejected from the header alone, before
        // any payload bytes arrive.
        let mut wire = vec![1u8, 0];
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            parse_message(&wire, MAX_MESSAGE_BYTES),
            Err(FrameError::OversizedFrame { .. })
        ));
        // Reassembly cap: tripped by headers alone too.
        let mut wire = Vec::new();
        wire.extend_from_slice(&[2, FLAG_MORE, 4, 0, 0, 0]);
        wire.extend_from_slice(b"abcd");
        wire.extend_from_slice(&[2, 0, 4, 0, 0, 0]);
        assert!(matches!(
            parse_message(&wire, 6),
            Err(FrameError::OversizedMessage { .. })
        ));
        // Kind change mid-message.
        let mut wire = Vec::new();
        wire.extend_from_slice(&[5, FLAG_MORE, 0, 0, 0, 0]);
        wire.extend_from_slice(&[6, 0, 0, 0, 0, 0]);
        assert!(matches!(
            parse_message(&wire, MAX_MESSAGE_BYTES),
            Err(FrameError::KindMismatch { first: 5, got: 6 })
        ));
    }

    #[test]
    fn reserved_flags_are_an_error() {
        let wire = [1u8, 0x80, 0, 0, 0, 0];
        assert!(matches!(
            read_message(&mut wire.as_slice()),
            Err(FrameError::BadFlags(0x80))
        ));
    }
}
