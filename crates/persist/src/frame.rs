//! The shared on-disk vocabulary: little-endian scalars, CRC-32,
//! length-prefixed frames and the envelope around them.
//!
//! Every durable artifact — region images ([`crate::checkpoint`]), shard
//! handoff images ([`crate::handoff`]) and WAL segments ([`crate::wal`]) —
//! is a [`HEADER_LEN`]-byte header (8-byte magic, `u32` LE version)
//! followed by **frames**; images close with a [`TRAILER`] frame and
//! nothing after it. A frame is
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE 802.3 polynomial, the same content-
//! hashing discipline SIMD dedup-chunking systems use to detect torn stored
//! data) of exactly the payload bytes. The reader refuses to hand back a
//! payload whose length field runs past the file (truncation) or whose CRC
//! disagrees (bit-flip / tear), each as a *distinct* typed
//! [`crate::PersistError`] — never a silently short or silently wrong
//! record.

use crate::PersistError;
use std::ops::RangeInclusive;

/// Bytes of the header every artifact starts with: an 8-byte magic, then
/// the format version as a little-endian `u32`. Frames start here.
pub const HEADER_LEN: usize = 12;

/// Payload of the frame that closes an image. A file cut exactly at a
/// frame boundary lacks it, so such a cut is still a typed truncation.
pub const TRAILER: &[u8] = b"END";

/// CRC-32 (IEEE, reflected, `0xEDB88320`) over `bytes`, starting from the
/// conventional all-ones preset. Table-driven; the table is built once.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Slicing-by-8: eight derived tables let the loop fold one u64 per
    // step instead of one byte, which matters because every checkpoint
    // region and log record pays this on both the write and read side.
    fn tables() -> &'static [[u32; 256]; 8] {
        use std::sync::OnceLock;
        static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut t = [[0u32; 256]; 8];
            for (i, e) in t[0].iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *e = c;
            }
            for k in 1..8 {
                for i in 0..256usize {
                    let prev = t[k - 1][i];
                    t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                }
            }
            t
        })
    }
    let t = tables();
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A growable byte buffer with little-endian primitive encoders — the
/// payload side of a frame.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over a payload with little-endian primitive decoders. Every
/// read is bounds-checked and a short payload is a typed
/// [`PersistError::Malformed`] naming what was being read.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(PersistError::Malformed {
                what: format!(
                    "{what}: need {n} byte(s) at offset {} of a {}-byte payload",
                    self.pos,
                    self.buf.len()
                ),
            }),
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, PersistError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Malformed {
            what: format!("{what}: invalid UTF-8"),
        })
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Requires the payload to be fully consumed — trailing garbage in a
    /// frame is corruption the CRC cannot catch (it was framed in), so the
    /// decoders catch it structurally.
    pub fn finish(self, what: &str) -> Result<(), PersistError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(PersistError::Malformed {
                what: format!(
                    "{what}: {} trailing byte(s) after the last field",
                    self.buf.len() - self.pos
                ),
            })
        }
    }
}

/// Appends one CRC frame around `payload` to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What [`next_frame`] found at the cursor.
#[derive(Debug)]
pub enum Frame<'a> {
    /// A whole, CRC-verified payload; the cursor has advanced past it.
    Ok(&'a [u8]),
    /// Clean end of input: the cursor sat exactly at the end.
    End,
}

/// Reads the frame at `*pos` in `buf`, advancing `*pos` past it.
///
/// Distinct failures are distinct errors: a header or payload that runs past
/// the end of the buffer is [`PersistError::Truncated`] (a torn write); a
/// complete frame whose CRC disagrees is [`PersistError::CrcMismatch`] (a
/// bit-flip). `context` names the artifact for the error message.
pub fn next_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    context: &str,
) -> Result<Frame<'a>, PersistError> {
    if *pos == buf.len() {
        return Ok(Frame::End);
    }
    let header_end = pos.checked_add(8).filter(|&e| e <= buf.len());
    let Some(header_end) = header_end else {
        return Err(PersistError::Truncated {
            what: format!("{context}: frame header"),
            offset: *pos,
            needed: 8,
            available: buf.len() - *pos,
        });
    };
    let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[*pos + 4..header_end].try_into().unwrap());
    let payload_end = header_end.checked_add(len).filter(|&e| e <= buf.len());
    let Some(payload_end) = payload_end else {
        return Err(PersistError::Truncated {
            what: format!("{context}: frame payload"),
            offset: header_end,
            needed: len,
            available: buf.len() - header_end,
        });
    };
    let payload = &buf[header_end..payload_end];
    let actual = crc32(payload);
    if actual != crc {
        return Err(PersistError::CrcMismatch {
            what: context.to_string(),
            offset: *pos,
            expected: crc,
            actual,
        });
    }
    *pos = payload_end;
    Ok(Frame::Ok(payload))
}

/// Appends the artifact header: `magic`, then `version` little-endian.
pub fn push_header(out: &mut Vec<u8>, magic: &[u8; 8], version: u32) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Checks the header at the start of `bytes` and returns the version it
/// names; frames follow at [`HEADER_LEN`]. Input shorter than the header
/// is [`PersistError::Truncated`], another magic is
/// [`PersistError::BadMagic`], and a version outside `versions` is
/// [`PersistError::UnsupportedVersion`]. `what` names the artifact.
pub fn read_header(
    bytes: &[u8],
    magic: &[u8; 8],
    versions: RangeInclusive<u32>,
    what: &str,
) -> Result<u32, PersistError> {
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Err(PersistError::Truncated {
            what: format!("{what}: header"),
            offset: 0,
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    };
    let (found, version) = header.split_at(magic.len());
    if found != magic {
        return Err(PersistError::BadMagic {
            what: what.to_string(),
            found: found.to_vec(),
        });
    }
    let version = u32::from_le_bytes(version.try_into().expect("4 version bytes"));
    if !versions.contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            what: what.to_string(),
            found: version,
            supported: *versions.end(),
        });
    }
    Ok(version)
}

/// Reads the frame at `*pos` as [`next_frame`] does, except that a clean
/// end of input is a [`PersistError::Truncated`]: the caller was promised
/// another frame (by a count in the meta frame, or by the trailer rule).
pub fn require_frame<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    what: &str,
) -> Result<&'a [u8], PersistError> {
    match next_frame(bytes, pos, what)? {
        Frame::Ok(p) => Ok(p),
        Frame::End => Err(PersistError::Truncated {
            what: format!("{what} (file ends before it)"),
            offset: *pos,
            needed: 8,
            available: 0,
        }),
    }
}

/// Reads the [`TRAILER`] frame at `pos` and requires it to end the input.
/// A different payload, or anything after it — raw bytes or another whole
/// frame — is [`PersistError::Malformed`]: the CRC cannot catch bytes that
/// were appended intact, so the structure must.
pub fn read_trailer(bytes: &[u8], mut pos: usize, what: &str) -> Result<(), PersistError> {
    let trailer = require_frame(bytes, &mut pos, &format!("{what}: trailer frame"))?;
    if trailer != TRAILER {
        return Err(PersistError::Malformed {
            what: format!("{what}: trailer is {trailer:02x?}, expected \"END\""),
        });
    }
    if pos != bytes.len() {
        return Err(PersistError::Malformed {
            what: format!(
                "{what}: {} byte(s) after the trailer frame",
                bytes.len() - pos
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, b"world!");
        let mut pos = 0;
        let mut seen: Vec<Vec<u8>> = Vec::new();
        while let Frame::Ok(p) = next_frame(&buf, &mut pos, "test").unwrap() {
            seen.push(p.to_vec());
        }
        assert_eq!(
            seen,
            vec![b"hello".to_vec(), b"".to_vec(), b"world!".to_vec()]
        );
    }

    #[test]
    fn truncated_header_and_payload_are_distinct_from_crc_mismatch() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"payload");
        // Torn mid-header.
        let mut pos = 0;
        let torn_header = next_frame(&buf[..4], &mut pos, "t").unwrap_err();
        assert!(
            matches!(torn_header, PersistError::Truncated { .. }),
            "{torn_header}"
        );
        // Torn mid-payload.
        let mut pos = 0;
        let torn_payload = next_frame(&buf[..buf.len() - 2], &mut pos, "t").unwrap_err();
        assert!(
            matches!(torn_payload, PersistError::Truncated { .. }),
            "{torn_payload}"
        );
        // Bit-flipped payload: whole frame present, wrong CRC.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let mut pos = 0;
        let crc = next_frame(&flipped, &mut pos, "t").unwrap_err();
        assert!(matches!(crc, PersistError::CrcMismatch { .. }), "{crc}");
    }

    #[test]
    fn decoder_rejects_short_reads_and_trailing_bytes() {
        let mut e = Enc::new();
        e.u64(7);
        e.str("name");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64("n").unwrap(), 7);
        assert_eq!(d.str("s").unwrap(), "name");
        assert!(d.at_end());

        let mut short = Dec::new(&bytes[..4]);
        let err = short.u64("n").unwrap_err();
        assert!(matches!(err, PersistError::Malformed { .. }), "{err}");

        let mut trailing = Dec::new(&bytes);
        let _ = trailing.u64("n").unwrap();
        let err = trailing.finish("payload").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
