//! Checksummed, length-prefixed frames.
//!
//! Every durable byte string (a WAL record, a checkpoint image) is wrapped
//! in a frame before it touches disk:
//!
//! ```text
//! ┌──────────┬──────────┬─────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload: len bytes          │
//! │  (LE)    │  (LE)    │ [version u8][kind u8][body] │
//! └──────────┴──────────┴─────────────────────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over the
//! payload only. The same checksum guards every WAL record, checkpoint image
//! and wire frame, so it runs on every served read and every checkpoint. It
//! is computed by slicing-by-16: sixteen compile-time tables let one step
//! fold 16 payload bytes into the register with sixteen independent lookups,
//! and only the last `len % 16` bytes take the bytewise loop. The polynomial
//! stays IEEE: the SSE4.2 `crc32` instruction computes CRC-32C, a different
//! polynomial, so using it would change every stored and wire byte, and
//! carry-less-multiply folding needs `unsafe` and runtime CPU detection.
//!
//! The frame layer detects exactly two failure shapes and
//! reports them as distinct typed errors:
//!
//! * **torn frame** — the file ends before `len` payload bytes (or even the
//!   8-byte header) are present: an append was interrupted mid-write;
//! * **checksum mismatch** — all bytes are present but the payload does not
//!   hash to `crc`: bit rot or an overwrite.
//!
//! A `len` beyond [`MAX_FRAME_LEN`] is reported as a corrupt length prefix
//! before any allocation is attempted. Writers enforce the same bound: a
//! payload that no reader would accept is refused before any byte of it is
//! written.

use std::io::{Read, Write};

use crate::error::{Result, StorageError};

/// Upper bound on a single frame's payload (64 MiB). A reader treats a
/// larger length prefix as garbage, so [`write_frame`] refuses to write a
/// larger payload.
pub const MAX_FRAME_LEN: u64 = 64 << 20;

/// Size of the `[len][crc]` header preceding every payload.
pub const FRAME_HEADER_LEN: u64 = 8;

/// Slicing-by-16 tables for CRC-32 (IEEE), built at compile time: 16 ×
/// 256 entries, 16 KiB. `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` is followed by `k`
/// zero bytes, so one 16-byte step is sixteen independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc`, the CRC-32 of some bytes, to cover `bytes` appended to
/// them: `crc32_update(crc32(a), b) == crc32(a ++ b)`. Lets a reader check a
/// payload it streams in chunks without ever holding all of it.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        // The register folds into the first four bytes; the other twelve
        // are looked up as they are, each shifted by its distance from the
        // end of the block.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Write one frame. The caller decides when to sync.
///
/// A payload over [`MAX_FRAME_LEN`] is refused with
/// [`StorageError::PayloadTooLarge`] before any byte is written: every
/// reader would reject the frame as corrupt, so writing it would
/// acknowledge data that can never be read back.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(StorageError::PayloadTooLarge { len });
    }
    let err = |e| StorageError::io("write frame", e);
    w.write_all(&(len as u32).to_le_bytes()).map_err(err)?;
    w.write_all(&crc32(payload).to_le_bytes()).map_err(err)?;
    w.write_all(payload).map_err(err)?;
    Ok(())
}

/// Bytes one frame with this payload occupies on disk.
pub fn framed_len(payload_len: usize) -> u64 {
    FRAME_HEADER_LEN + payload_len as u64
}

/// Read into `buf` until it is full or the input ends; returns the number
/// of bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8], context: &str) -> Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StorageError::io(context, e)),
        }
    }
    Ok(got)
}

/// Read a frame header: `Ok(None)` at a clean end of file, else the
/// declared payload length (already checked against [`MAX_FRAME_LEN`]) and
/// the recorded checksum.
fn read_header(r: &mut impl Read, offset: u64) -> Result<Option<(u64, u32)>> {
    let mut header = [0u8; FRAME_HEADER_LEN as usize];
    match read_full(r, &mut header, "read frame header")? {
        0 => return Ok(None), // clean EOF between frames
        got if got < header.len() => {
            return Err(StorageError::TornFrame {
                offset,
                needed: FRAME_HEADER_LEN,
                available: got as u64,
            })
        }
        _ => {}
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
    let expected = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(StorageError::FrameTooLarge {
            offset,
            declared: len,
        });
    }
    Ok(Some((len, expected)))
}

fn check_crc(offset: u64, expected: u32, actual: u32) -> Result<()> {
    if actual != expected {
        return Err(StorageError::ChecksumMismatch {
            offset,
            expected,
            actual,
        });
    }
    Ok(())
}

/// Read the next frame from `r`, which is positioned at byte `offset` of
/// the underlying file (used only for error reporting).
///
/// Returns `Ok(None)` at a clean end of file (zero bytes remaining) and a
/// typed corruption error for a torn header, torn payload, implausible
/// length, or checksum mismatch.
pub fn read_frame(r: &mut impl Read, offset: u64) -> Result<Option<Vec<u8>>> {
    let Some((len, expected)) = read_header(r, offset)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload, "read frame payload")?;
    if got < payload.len() {
        return Err(StorageError::TornFrame {
            offset,
            needed: FRAME_HEADER_LEN + len,
            available: FRAME_HEADER_LEN + got as u64,
        });
    }
    check_crc(offset, expected, crc32(&payload))?;
    Ok(Some(payload))
}

/// Check the next frame like [`read_frame`], with the same results and
/// typed errors, but without holding its payload: the payload streams
/// through the CRC in a fixed buffer and only its first `head.len()` bytes
/// are kept, copied into `head`. Returns the payload length.
pub fn check_frame(r: &mut impl Read, offset: u64, head: &mut [u8]) -> Result<Option<u64>> {
    let Some((len, expected)) = read_header(r, offset)? else {
        return Ok(None);
    };
    let mut buf = [0u8; 1 << 16];
    let mut crc = 0;
    let mut done = 0u64;
    while done < len {
        let want = (len - done).min(buf.len() as u64) as usize;
        let got = read_full(r, &mut buf[..want], "read frame payload")?;
        let chunk = &buf[..got];
        if let Some(rest) = head.get_mut(done as usize..) {
            let n = rest.len().min(got);
            rest[..n].copy_from_slice(&chunk[..n]);
        }
        crc = crc32_update(crc, chunk);
        done += got as u64;
        if got < want {
            return Err(StorageError::TornFrame {
                offset,
                needed: FRAME_HEADER_LEN + len,
                available: FRAME_HEADER_LEN + done,
            });
        }
    }
    check_crc(offset, expected, crc)?;
    Ok(Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop the slicing kernel replaced: one table lookup per
    /// byte. Kept as the reference the kernel is checked against.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic, non-repeating test bytes.
    fn test_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn kernel_matches_bytewise_at_every_length_and_alignment() {
        let data = test_bytes(256 + 16);
        for start in 0..16 {
            for len in 0..=256 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(0, s), "start {start}, len {len}");
                assert_eq!(crc32_update(0x1234_5678, s), crc32_bytewise(0x1234_5678, s));
            }
        }
    }

    #[test]
    fn crc32_update_agrees_at_every_split() {
        let data = test_bytes(300);
        let whole = crc32(&data);
        assert_eq!(whole, crc32_bytewise(0, &data));
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_checksum_mismatch() {
        let payload = test_bytes(64);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let header = FRAME_HEADER_LEN as usize;
        for bit in 0..payload.len() * 8 {
            let mut flipped = buf.clone();
            flipped[header + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    read_frame(&mut &flipped[..], 0),
                    Err(StorageError::ChecksumMismatch { .. })
                ),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 0).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 13).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 21).unwrap().is_none());
    }

    #[test]
    fn torn_and_flipped_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Torn payload.
        let torn = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut &torn[..], 0),
            Err(StorageError::TornFrame { .. })
        ));
        // Torn header.
        let torn = &buf[..4];
        assert!(matches!(
            read_frame(&mut &torn[..], 0),
            Err(StorageError::TornFrame { .. })
        ));
        // Flipped payload byte.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &flipped[..], 0),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        // Garbage length prefix.
        let mut huge = buf;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..], 0),
            Err(StorageError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn crc32_update_continues_a_checksum() {
        let data = b"123456789";
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data));
        }
    }

    #[test]
    fn check_frame_agrees_with_read_frame() {
        // A payload longer than the streaming buffer, so the CRC is folded
        // over several chunks.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, b"ab").unwrap();
        let mut r = &buf[..];
        let mut head = [0u8; 10];
        assert_eq!(check_frame(&mut r, 0, &mut head).unwrap(), Some(200_000));
        assert_eq!(head[..], payload[..10]);
        // A payload shorter than `head` fills only its prefix.
        let mut head = [0u8; 10];
        assert_eq!(check_frame(&mut r, 0, &mut head).unwrap(), Some(2));
        assert_eq!(&head[..3], b"ab\0");
        assert_eq!(check_frame(&mut r, 0, &mut head).unwrap(), None);

        // Every damaged variant yields exactly the error `read_frame` gives.
        let one = &buf[..buf.len() - framed_len(2) as usize];
        let mut flipped = one.to_vec();
        flipped[100_000] ^= 0x01;
        let mut huge = one.to_vec();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        for bad in [&one[..5], &one[..one.len() - 1], &flipped[..], &huge[..]] {
            let want = read_frame(&mut &bad[..], 7).unwrap_err();
            let got = check_frame(&mut &bad[..], 7, &mut [0u8; 10]).unwrap_err();
            assert!(want.is_corruption());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn oversize_payload_is_refused_before_writing() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &payload).unwrap_err();
        assert!(matches!(
            err,
            StorageError::PayloadTooLarge { len } if len == MAX_FRAME_LEN + 1
        ));
        assert!(!err.is_corruption());
        assert!(out.is_empty(), "a refused frame wrote {} bytes", out.len());
    }
}
