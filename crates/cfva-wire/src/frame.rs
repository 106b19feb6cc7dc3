//! The transport framing: a big-endian `u32` payload length followed
//! by that many bytes of UTF-8 JSON.
//!
//! The framing layer knows nothing about the schema — it moves
//! strings. Four properties matter:
//!
//! * **Typed failure, never panic.** Truncated length words,
//!   truncated payloads, lengths beyond [`MAX_FRAME_LEN`] and
//!   non-UTF-8 payloads all come back as [`FrameError`] variants;
//!   adversarial bytes cannot take the process down (proven in
//!   `tests/codec_roundtrip.rs`).
//! * **Clean EOF is distinguishable.** A peer closing between frames
//!   yields [`FrameError::Closed`]; closing mid-frame yields an IO
//!   error. Readers use the distinction to tell graceful drain from a
//!   lost peer.
//! * **Bounded memory.** A frame length is attacker-controlled input;
//!   [`MAX_FRAME_LEN`] caps what a single frame may ask the reader to
//!   allocate, and the payload buffer grows only as bytes arrive, so a
//!   bare length word cannot pin the cap's worth of memory. Both ends
//!   read every frame of a connection into one reused buffer
//!   ([`read_frame_into`]).
//! * **One write per burst.** The client and server send through an
//!   `Outbox`: each frame's payload is encoded in place behind a
//!   placeholder length word in one reused per-connection buffer, and
//!   every queued frame leaves in one write, length words and
//!   payloads together (a frame is split only where the socket takes
//!   part of a write). Both ends flush before any read that can
//!   block. The flush is resumable, so a server can put a short write
//!   timeout on a socket whose client stops reading.

use std::io::{self, Read, Write};

use crate::json::Encode;

/// The protocol version exchanged in the hello frames. Bump on any
/// incompatible schema change; the server refuses mismatched hellos
/// with a typed `Fatal` frame instead of mis-decoding. Version 3: the
/// cache counters in a stats frame report a byte bound (`bytes`,
/// `capacity_bytes`, `oversize`) in place of an entry `capacity`.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a frame's payload length, in bytes (64 MiB). A
/// `Response::FamilySweep` over a large family fits with orders of
/// magnitude to spare; anything bigger is a corrupt or hostile length
/// word.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Payload bytes reserved up front when reading a frame (64 KiB):
/// typical frames fit without regrowing, and larger ones grow with the
/// bytes actually received.
const INITIAL_PAYLOAD_CAPACITY: usize = 64 << 10;

/// Capacity an [`Outbox`] or a [`read_frame_into`] buffer keeps
/// between frames (64 KiB, the client's flush bound): a burst of large
/// frames grows it once, and it shrinks back after the burst.
const RETAINED_CAPACITY: usize = 64 << 10;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including mid-frame EOF, which
    /// surfaces as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The peer closed cleanly between frames.
    Closed,
    /// The length word exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The length the peer claimed.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload is not valid UTF-8.
    InvalidUtf8 {
        /// How many bytes decoded before the first bad sequence.
        valid_up_to: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::InvalidUtf8 { valid_up_to } => {
                write!(
                    f,
                    "frame payload is not UTF-8 (valid up to byte {valid_up_to})"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: length word, payload, no flush (callers batch
/// writes and flush once per burst).
///
/// Payloads over [`MAX_FRAME_LEN`] are refused with
/// [`FrameError::Oversize`] before anything is written, so the stream
/// stays frame-aligned.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), FrameError> {
    let len = frame_len(payload.len())?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    Ok(())
}

/// A payload length as its length word, or [`FrameError::Oversize`].
fn frame_len(len: usize) -> Result<u32, FrameError> {
    u32::try_from(len)
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or(FrameError::Oversize {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME_LEN,
        })
}

/// Outgoing frames for one connection, encoded in place into one
/// reused buffer.
///
/// [`push`](Outbox::push) appends a placeholder length word and
/// encodes the payload straight after it; [`flush`](Outbox::flush)
/// patches the length words and sends every queued frame in one
/// stretch of writes. Once grown, the buffer serves every later frame
/// without allocating; past [`RETAINED_CAPACITY`] it shrinks back
/// after each flush. A flush is resumable: on a socket with a write
/// timeout, a write that times out leaves the unsent bytes queued,
/// ahead of any later frame, for the next flush.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    buf: String,
    /// Each queued frame's start in `buf` and its payload length.
    frames: Vec<(usize, u32)>,
    /// Patched bytes a flush has taken from `buf`, and how many of
    /// them have left. Non-empty between flushes only after a write
    /// timed out.
    unsent: Vec<u8>,
    sent: usize,
}

impl Outbox {
    /// Queues one frame. A payload over [`MAX_FRAME_LEN`] is dropped
    /// and refused with [`FrameError::Oversize`], so the queue stays
    /// frame-aligned.
    pub(crate) fn push(&mut self, payload: &dyn Encode) -> Result<(), FrameError> {
        let start = self.buf.len();
        self.buf.push_str("\0\0\0\0");
        payload.encode(&mut self.buf);
        match frame_len(self.buf.len() - start - 4) {
            Ok(len) => {
                self.frames.push((start, len));
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(start);
                Err(e)
            }
        }
    }

    /// Bytes queued and not yet sent, length words included.
    pub(crate) fn queued(&self) -> usize {
        self.buf.len() + self.unsent.len() - self.sent
    }

    /// Sends every queued byte. `Ok(true)` once all of it has left;
    /// `Ok(false)` if a write timed out (`WouldBlock` or `TimedOut`)
    /// first, keeping the rest queued. On any other error the queue is
    /// emptied.
    pub(crate) fn flush<W: Write>(&mut self, w: &mut W) -> Result<bool, FrameError> {
        if !self.frames.is_empty() {
            // The patched length words are not UTF-8, so the bytes
            // leave the `String` for the write.
            let mut bytes = std::mem::take(&mut self.buf).into_bytes();
            for (start, len) in self.frames.drain(..) {
                if let Some(word) = bytes.get_mut(start..start + 4) {
                    word.copy_from_slice(&len.to_be_bytes());
                }
            }
            if self.unsent.is_empty() {
                self.unsent = bytes;
            } else {
                self.unsent.extend_from_slice(&bytes);
                self.recycle(bytes);
            }
        }
        let result = loop {
            let Some(rest) = self.unsent.get(self.sent..).filter(|rest| !rest.is_empty()) else {
                break Ok(true);
            };
            match w.write(rest) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => break Err(e),
            }
        };
        let bytes = std::mem::take(&mut self.unsent);
        self.sent = 0;
        self.recycle(bytes);
        result.map_err(FrameError::Io)
    }

    /// Keeps `bytes`' allocation, cleared and shrunk to
    /// [`RETAINED_CAPACITY`], for the next frames, unless `buf`
    /// already holds one.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.buf.capacity() == 0 {
            bytes.clear();
            bytes.shrink_to(RETAINED_CAPACITY);
            // An empty buffer is valid UTF-8: this keeps the allocation.
            self.buf = String::from_utf8(bytes).unwrap_or_default();
        }
    }
}

/// Whether `buffered` starts with a whole frame, length word and
/// payload, so that reading it cannot block.
pub(crate) fn holds_frame(buffered: &[u8]) -> bool {
    match buffered.first_chunk::<4>() {
        Some(word) => buffered.len() - 4 >= u32::from_be_bytes(*word) as usize,
        None => false,
    }
}

/// Reads one frame's payload.
///
/// EOF before the first length byte is [`FrameError::Closed`] (the
/// peer finished cleanly); EOF anywhere after is an IO error with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<String, FrameError> {
    let mut payload = Vec::new();
    read_payload(r, &mut payload)?;
    String::from_utf8(payload).map_err(|e| FrameError::InvalidUtf8 {
        valid_up_to: e.utf8_error().valid_up_to(),
    })
}

/// Reads one frame's payload into `buf`, replacing its contents, and
/// returns it as text: [`read_frame`] for a reader that keeps one
/// buffer per connection. Every check is the same; past 64 KiB the
/// buffer shrinks back before the next frame.
pub fn read_frame_into<'b, R: Read>(
    r: &mut R,
    buf: &'b mut Vec<u8>,
) -> Result<&'b str, FrameError> {
    buf.clear();
    buf.shrink_to(RETAINED_CAPACITY);
    read_payload(r, buf)?;
    std::str::from_utf8(buf).map_err(|e| FrameError::InvalidUtf8 {
        valid_up_to: e.valid_up_to(),
    })
}

/// Reads one frame's length word, then appends its payload to the
/// empty `payload`.
fn read_payload<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    let mut len_word = [0u8; 4];
    read_exact_or_closed(r, &mut len_word)?;
    let len = u32::from_be_bytes(len_word);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    // Grow the buffer with the bytes that actually arrive: the length
    // word alone must not pin `len` bytes of memory.
    payload.reserve((len as usize).min(INITIAL_PAYLOAD_CAPACITY));
    r.take(u64::from(len)).read_to_end(payload)?;
    if payload.len() < len as usize {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside a frame payload",
        )));
    }
    Ok(())
}

/// `read_exact`, except EOF at byte 0 is the typed
/// [`FrameError::Closed`] rather than an IO error.
fn read_exact_or_closed<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(slot) = buf.get_mut(filled..) else {
            break; // unreachable: filled < buf.len()
        };
        match r.read(slot) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length word",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, ServerFrame};

    /// A sink that records the bytes of every `write` call.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queued_frames_leave_in_one_write_and_read_back() {
        let frames = [
            ServerFrame::Fatal {
                reason: "first".to_string(),
            },
            ServerFrame::Hello {
                proto: PROTOCOL_VERSION,
                max_in_flight: 8,
            },
        ];
        let mut outbox = Outbox::default();
        let mut sink = Writes::default();
        for f in &frames {
            outbox.push(f).expect("small frames fit");
        }
        outbox.flush(&mut sink).expect("write");
        assert_eq!(sink.0.len(), 1, "one write for every queued frame");
        let mut stream = io::Cursor::new(sink.0.concat());
        for f in &frames {
            let payload = read_frame(&mut stream).expect("frame reads back");
            assert_eq!(payload, json::encode_server_frame(f));
        }
        assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));

        // The buffer is reused: the next frame is a write of its own.
        outbox.push(&frames[0]).expect("small frame fits");
        outbox.flush(&mut sink).expect("write");
        assert_eq!(sink.0.len(), 2);
        outbox.flush(&mut sink).expect("nothing queued");
        assert_eq!(sink.0.len(), 2, "an empty flush writes nothing");
    }

    /// A socket that takes `room` more bytes, then times out.
    struct Stalls {
        taken: Vec<u8>,
        room: usize,
    }

    impl Write for Stalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room).min(7);
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.room -= n;
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_timed_out_flush_resumes_where_it_stopped() {
        let frame = |i: usize| ServerFrame::Fatal {
            reason: format!("frame {i}"),
        };
        let mut outbox = Outbox::default();
        let mut socket = Stalls {
            taken: Vec::new(),
            room: 10,
        };
        outbox.push(&frame(0)).expect("small frame fits");
        outbox.push(&frame(1)).expect("small frame fits");
        assert!(!outbox.flush(&mut socket).expect("a timeout is no error"));
        assert_eq!(socket.taken.len(), 10);
        // Frames queued during the stall leave after the stalled bytes.
        outbox.push(&frame(2)).expect("small frame fits");
        socket.room = 1 << 10;
        assert!(outbox.flush(&mut socket).expect("drains"));
        assert!(outbox.flush(&mut socket).expect("nothing queued"));
        assert!(holds_frame(&socket.taken));
        let mut stream = io::Cursor::new(socket.taken);
        for i in 0..3 {
            let payload = read_frame(&mut stream).expect("frame reads back");
            assert_eq!(payload, json::encode_server_frame(&frame(i)));
        }
        assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
        assert!(!holds_frame(&[0, 0, 0, 2, b'{']));
        assert!(!holds_frame(&[0, 0]));
    }
}
