//! Shared wire framing: CRC32-sealed payloads behind a length prefix.
//!
//! Both wire protocols in this workspace — the distributed-training
//! transport ([`crate::transport`]) and the serving front-end
//! (`latte-serve`'s `net` module) — move discrete messages over byte
//! streams with the same two conventions:
//!
//! 1. **Length prefix**: every message is preceded by its byte length as
//!    a little-endian `u32`, so a reader always knows how much to pull
//!    off the stream before it can act, and an oversized prefix is
//!    rejected *before* any allocation ([`read_frame`]'s `max_len`).
//! 2. **CRC32 seal**: the message body carries a CRC32 trailer computed
//!    by [`crc32`] — the workspace's one CRC, which also guards
//!    checkpoints — so a flipped bit anywhere in the
//!    body is caught at the receiver ([`verify`]) instead of silently
//!    corrupting gradients or inference results.
//!
//! The two layers compose but are independent: [`seal`]/[`verify`] are
//! pure byte transforms, [`write_frame`]/[`read_frame`] are the stream
//! I/O. The transport's [`crate::transport::Frame`] seals its own
//! encoded header+payload; the serving protocol seals each message
//! body. Corruption surfaces as [`FrameIntegrity::BadCrc`], the signal
//! both protocols treat as retryable-or-fatal per their own policy.
//!
//! Tensors cross both wires as little-endian `f32`s; [`put_f32s_le`] and
//! [`f32s_le`] are the one bulk conversion pair both codecs use.
//!
//! What is *inside* a verified body is each format's own business, but
//! all of them — serving messages, checkpoints — are little-endian
//! fields read front to back, so they share one bounds-checked
//! [`Reader`] (and the `put_*` writers beside it) and map its
//! [`ReadError`] into their own error types.
//!
//! The format that lives in a file — the checkpoint — is a magic, a body
//! and the CRC trailer, replaced atomically: `write_sealed_file` and
//! `read_sealed_file` are that half.

use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::path::{Path, PathBuf};

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables (16 KiB): `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[j][b]` is the CRC of byte `b`
/// followed by `j` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[j - 1][b];
            t[j][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        j += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected; the zlib/PNG checksum) — the integrity
/// check behind every sealed format in the workspace: wire frames,
/// checkpoints, and the net fingerprint.
///
/// Table-driven, sixteen bytes per step (slicing-by-16): the sixteen
/// lookups of a step are independent of each other, so the only serial
/// dependency is one XOR tree per 16 bytes instead of eight shifts per
/// byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |c: &[u8], at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(16);
    for c in &mut blocks {
        let w = [word(c, 0) ^ crc, word(c, 4), word(c, 8), word(c, 12)];
        crc = 0;
        for (i, w) in w.into_iter().enumerate() {
            let base = 12 - 4 * i;
            crc ^= t[base + 3][(w & 0xFF) as usize]
                ^ t[base + 2][((w >> 8) & 0xFF) as usize]
                ^ t[base + 1][((w >> 16) & 0xFF) as usize]
                ^ t[base][(w >> 24) as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `values` to `out` as little-endian bytes, in bulk.
#[inline]
pub fn put_f32s_le(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Views little-endian bytes as the `f32`s they encode, bit patterns
/// preserved; a trailing partial value is ignored (callers bound the
/// slice to a whole number of values).
#[inline]
pub fn f32s_le(bytes: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` behind a `u32` byte-length prefix — the string encoding
/// [`Reader::str`] reads back.
///
/// # Panics
///
/// If `s` is longer than `u32::MAX` bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("string fits its u32 length prefix"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tensor: a `u32` element count, then the values — what
/// [`Reader::f32_vec`] reads back.
pub fn put_f32_vec(out: &mut Vec<u8>, values: &[f32]) {
    put_u32(out, values.len() as u32);
    put_f32s_le(out, values);
}

/// Why a [`Reader`] could not produce the value asked of it. Every
/// decoder of sealed or wire bytes maps this one error into its own
/// (`RuntimeError::Malformed`, serve's `NetError::Protocol`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// Fewer bytes remain than the field needs.
    Truncated {
        /// Bytes the field needs.
        wanted: usize,
        /// Offset the read started at.
        at: usize,
        /// Bytes that remain from there.
        have: usize,
    },
    /// A string field is not UTF-8.
    Utf8 {
        /// Offset of the string's first byte.
        at: usize,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated { wanted, at, have } => {
                write!(
                    f,
                    "ends early (wanted {wanted} bytes at offset {at}, have {have})"
                )
            }
            ReadError::Utf8 { at } => write!(f, "non-UTF-8 string at offset {at}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// The workspace's one bounds-checked little-endian byte reader, behind
/// the checkpoint and serving-protocol decoders. Every
/// read checks the remaining length first and borrows from the input,
/// so a decoder that collects what it reads (instead of pre-sizing from a
/// count field) allocates no more than the input is long.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when fewer than `n` remain (every other
    /// read method fails the same way).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.remaining() {
            return Err(ReadError::Truncated {
                wanted: n,
                at: self.at,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`, bit pattern preserved.
    pub fn f32(&mut self) -> Result<f32, ReadError> {
        self.array().map(f32::from_le_bytes)
    }

    /// `count` little-endian `f32`s.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] when `4 × count` bytes do not remain
    /// (including when that product overflows).
    pub fn f32s(
        &mut self,
        count: usize,
    ) -> Result<impl ExactSizeIterator<Item = f32> + 'a, ReadError> {
        let bytes = self.take(count.saturating_mul(4))?;
        Ok(f32s_le(bytes))
    }

    /// A [`put_f32_vec`]-encoded tensor; fails like [`Reader::f32s`].
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, ReadError> {
        let count = self.u32()? as usize;
        Ok(self.f32s(count)?.collect())
    }

    /// The next `len` bytes as UTF-8 (for codecs with their own length
    /// prefix width).
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`], or [`ReadError::Utf8`].
    pub fn utf8(&mut self, len: usize) -> Result<&'a str, ReadError> {
        let at = self.at;
        std::str::from_utf8(self.take(len)?).map_err(|_| ReadError::Utf8 { at })
    }

    /// A [`put_str`]-encoded string: `u32` length, then UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`], or [`ReadError::Utf8`].
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }
}

/// Byte length of the CRC32 trailer appended by [`seal`].
pub const CRC_LEN: usize = 4;

/// Byte length of the `u32` length prefix written by [`write_frame`].
pub const LEN_PREFIX: usize = 4;

/// Why a sealed byte string failed [`verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameIntegrity {
    /// Shorter than the CRC trailer itself.
    Truncated,
    /// CRC32 trailer mismatch: the body was corrupted in flight.
    BadCrc,
}

impl fmt::Display for FrameIntegrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameIntegrity::Truncated => write!(f, "frame shorter than its CRC trailer"),
            FrameIntegrity::BadCrc => write!(f, "frame CRC mismatch (corrupted in flight)"),
        }
    }
}

impl std::error::Error for FrameIntegrity {}

/// Appends the CRC32 trailer to `body`, consuming it: the returned
/// bytes are `body ++ crc32(body)` in little-endian.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Checks the CRC32 trailer of a [`seal`]ed byte string and returns the
/// body with the trailer stripped.
///
/// # Errors
///
/// [`FrameIntegrity::Truncated`] when `bytes` cannot even hold the
/// trailer, [`FrameIntegrity::BadCrc`] on checksum mismatch.
pub fn verify(bytes: &[u8]) -> Result<&[u8], FrameIntegrity> {
    if bytes.len() < CRC_LEN {
        return Err(FrameIntegrity::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - CRC_LEN);
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != want {
        return Err(FrameIntegrity::BadCrc);
    }
    Ok(body)
}

/// Sibling temporary path (`<file name>.tmp`) of the atomic write of a
/// checkpoint, for tests that simulate a crash mid-write.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| "sealed".into(), |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `parts`, back to back, as the new contents of `path`, so that
/// a crash at any point leaves either the previous file or the new one:
/// the bytes go to the [`tmp_path`] sibling, are synced, and the sibling
/// is renamed over `path`; the directory is synced last so the rename
/// itself survives. The parts are a sealed file's magic, body and CRC
/// trailer, as the checkpoint renders them.
///
/// # Errors
///
/// The first I/O error; `path` is untouched unless the rename happened.
pub(crate) fn write_sealed_file(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = std::fs::File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Opens the bytes of a sealed file — `magic`, a body, a CRC32 trailer
/// over the body alone — and returns the body: length floor, then magic,
/// then [`verify`], before any body byte is interpreted.
///
/// # Errors
///
/// Which check failed, phrased to follow the file's name.
pub(crate) fn read_sealed_file<'a>(bytes: &'a [u8], magic: &[u8]) -> Result<&'a [u8], String> {
    if bytes.len() < magic.len() + CRC_LEN {
        return Err(format!(
            "is truncated ({} bytes — too short for header and checksum)",
            bytes.len()
        ));
    }
    if !bytes.starts_with(magic) {
        return Err("is another kind of file (bad magic)".into());
    }
    verify(&bytes[magic.len()..]).map_err(|e| {
        format!("failed its integrity check ({e}); the file is truncated or corrupted")
    })
}

/// Writes one length-prefixed frame (`u32` LE length, then the bytes)
/// and flushes the stream. Prefix and body go out in one vectored write
/// (looping only on a short write), so a `TCP_NODELAY` socket sends one
/// segment train per frame instead of a 4-byte packet and then the body.
///
/// # Errors
///
/// `InvalidInput` when `bytes` does not fit the `u32` prefix; otherwise
/// any I/O error from the underlying stream.
pub fn write_frame(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(bytes.len())
        .map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "wire frame of {} bytes overflows the u32 length prefix",
                    bytes.len()
                ),
            )
        })?
        .to_le_bytes();
    let mut bufs = [IoSlice::new(&len), IoSlice::new(bytes)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-prefixed frame, refusing prefixes above `max_len`
/// before allocating anything (the defense against a hostile peer
/// advertising a multi-gigabyte frame).
///
/// # Errors
///
/// `InvalidData` for an oversized prefix; otherwise any I/O error from
/// the underlying stream (`UnexpectedEof` on a peer that hung up
/// mid-frame, `WouldBlock`/`TimedOut` when a read timeout is armed).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; LEN_PREFIX];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("oversized wire frame: {len} bytes (cap {max_len})"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The bit-at-a-time definition of the checksum: the reference the
    /// table-driven [`crc32`] is tested (and timed) against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic filler bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_short_length() {
        // Every length 0..=4096 crosses every block/remainder split of
        // the 16-byte kernel.
        let data = noise(4096, 1);
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "length {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn crc32_matches_the_bitwise_reference_on_unaligned_mebibytes(
            seed in 0u64..u64::MAX,
            offset in 0usize..64,
        ) {
            let data = noise(offset + (1 << 20), seed);
            let slice = &data[offset..];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    proptest! {
        #[test]
        fn verify_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
        ) {
            // Structured outcome only: the body, or one of two errors.
            match verify(&bytes) {
                Ok(body) => prop_assert_eq!(body.len() + CRC_LEN, bytes.len()),
                Err(FrameIntegrity::Truncated) => prop_assert!(bytes.len() < CRC_LEN),
                Err(FrameIntegrity::BadCrc) => prop_assert!(bytes.len() >= CRC_LEN),
            }
        }

        #[test]
        fn f32_bulk_codec_preserves_bit_patterns(
            mut bits in proptest::collection::vec(0u32..u32::MAX, 0..200),
        ) {
            // NaN payloads, infinities and -0.0 must survive: compare
            // bits, not values.
            bits.extend([0x8000_0000, 0x7FC0_0001, 0xFFFF_FFFF, 0x7F80_0000]);
            let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut bytes = vec![0xAA];
            put_f32s_le(&mut bytes, &values);
            prop_assert_eq!(bytes.len(), 1 + 4 * values.len());
            let back: Vec<u32> = f32s_le(&bytes[1..]).map(f32::to_bits).collect();
            prop_assert_eq!(back, bits);
        }
    }

    /// The release-mode throughput gate `scripts/check.sh` and CI run:
    /// both kernels timed back to back on the same MiB, best of several
    /// rounds each, compared as a ratio so a slow or noisy host scales
    /// both sides alike.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "a timing ratio: run with --release")]
    fn crc32_beats_the_bitwise_reference_fivefold() {
        let data = noise(1 << 20, 7);
        let best = |f: &dyn Fn(&[u8]) -> u32| {
            (0..7)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    std::hint::black_box(f(std::hint::black_box(&data)));
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (fast, slow) = (best(&crc32), best(&crc32_bitwise));
        let mb = data.len() as f64 / 1e6;
        println!(
            "crc32: table {:.0} MB/s, bitwise {:.0} MB/s, ratio {:.1}x",
            mb / fast,
            mb / slow,
            slow / fast
        );
        assert!(
            slow / fast >= 5.0,
            "table-driven crc32 is only {:.1}x the bitwise loop",
            slow / fast
        );
    }

    #[test]
    fn seal_verify_roundtrip() {
        let body = b"the latte serving protocol".to_vec();
        let sealed = seal(body.clone());
        assert_eq!(sealed.len(), body.len() + CRC_LEN);
        assert_eq!(verify(&sealed).unwrap(), &body[..]);
        // Empty bodies are legal (control messages).
        let sealed = seal(Vec::new());
        assert_eq!(verify(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        // The corruption negative control: any single flipped bit in a
        // sealed frame — body or trailer — must fail verification.
        let sealed = seal(vec![0x00, 0xFF, 0x5A, 0xA5, 0x3C]);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(
                    verify(&bad),
                    Err(FrameIntegrity::BadCrc),
                    "flipping bit {bit} of byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_seal_is_structured() {
        assert_eq!(verify(&[]), Err(FrameIntegrity::Truncated));
        assert_eq!(verify(&[1, 2, 3]), Err(FrameIntegrity::Truncated));
    }

    #[test]
    fn stream_roundtrip_and_oversize_refusal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"beta");
        assert_eq!(
            read_frame(&mut r, 64).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A hostile length prefix is refused before allocation.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 32]).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_stream_is_an_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"incomplete").unwrap();
        buf.truncate(buf.len() - 3); // peer died mid-frame
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 64).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
    #[test]
    fn reader_reads_back_what_the_writers_wrote_and_stops_at_the_end() {
        let mut bytes = vec![7u8];
        put_u16(&mut bytes, 0xBEEF);
        put_u32(&mut bytes, 0xDEAD_BEEF);
        put_u64(&mut bytes, u64::MAX - 1);
        put_str(&mut bytes, "héllo");
        put_f32s_le(&mut bytes, &[1.5, -0.0]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(), Ok("héllo"));
        let bits: Vec<u32> = r.f32s(2).unwrap().map(f32::to_bits).collect();
        assert_eq!(bits, [1.5f32.to_bits(), (-0.0f32).to_bits()]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            r.u8(),
            Err(ReadError::Truncated {
                wanted: 1,
                at: bytes.len(),
                have: 0
            })
        );
        // A failed read consumes nothing.
        let mut r = Reader::new(&bytes[..4]);
        assert!(r.u64().is_err());
        assert_eq!(r.remaining(), 4);
        // Length fields larger than the input, up to overflow, are errors.
        assert!(Reader::new(&[0xFF; 4]).str().is_err());
        assert!(Reader::new(&[0; 8]).f32s(usize::MAX).is_err());
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xFF]).str(),
            Err(ReadError::Utf8 { at: 4 })
        );
    }
}
