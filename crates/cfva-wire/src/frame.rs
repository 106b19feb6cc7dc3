//! The transport framing: a big-endian `u32` payload length followed
//! by that many bytes of UTF-8 JSON.
//!
//! The framing layer knows nothing about the schema — it moves
//! strings. Three properties matter:
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
//!   bare length word cannot pin the cap's worth of memory.

use std::io::{self, Read, Write};

/// The protocol version exchanged in the hello frames. Bump on any
/// incompatible schema change; the server refuses mismatched hellos
/// with a typed `Fatal` frame instead of mis-decoding.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame's payload length, in bytes (64 MiB). A
/// `Response::FamilySweep` over a large family fits with orders of
/// magnitude to spare; anything bigger is a corrupt or hostile length
/// word.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Payload bytes reserved up front when reading a frame (64 KiB):
/// typical frames fit without regrowing, and larger ones grow with the
/// bytes actually received.
const INITIAL_PAYLOAD_CAPACITY: usize = 64 << 10;

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
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or(FrameError::Oversize {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            max: MAX_FRAME_LEN,
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    Ok(())
}

/// Reads one frame's payload.
///
/// EOF before the first length byte is [`FrameError::Closed`] (the
/// peer finished cleanly); EOF anywhere after is an IO error with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<String, FrameError> {
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
    let mut payload = Vec::with_capacity((len as usize).min(INITIAL_PAYLOAD_CAPACITY));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside a frame payload",
        )));
    }
    String::from_utf8(payload).map_err(|e| FrameError::InvalidUtf8 {
        valid_up_to: e.utf8_error().valid_up_to(),
    })
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
