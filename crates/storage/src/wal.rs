//! A write-ahead log and snapshot store for durable exchange sessions.
//!
//! The incremental chase earns its materialized target one committed
//! [`DeltaBatch`](../../tdx_core/chase/incremental) at a time; this module
//! makes those commits survive a crash. Two artifacts live in a session's
//! state directory:
//!
//! * **the log** (`wal.log`) — an append-only sequence of CRC-guarded,
//!   length-prefixed records, one fsync'd append per committed batch. The
//!   record framing extends [`codec::write_frame`](crate::codec::write_frame)
//!   with a CRC-32 so that a *torn tail* (a crash mid-append) is
//!   distinguishable from a complete record: replay stops cleanly at the
//!   first record whose length or checksum does not hold, yielding exactly
//!   the committed prefix;
//! * **the snapshot** (`snapshot.bin`) — a single CRC-guarded record holding
//!   the full serialized session state, written atomically (temp file +
//!   fsync + rename) so a crash mid-snapshot leaves the previous snapshot
//!   intact. After a snapshot lands, the log is truncated.
//!
//! The module is deliberately bytes-level: what goes *inside* a record is
//! the caller's [`Wire`](crate::codec::Wire) encoding. Corruption anywhere
//! is handled without panicking — a damaged log tail is a shorter prefix, a
//! damaged snapshot is an `InvalidData` error the caller surfaces.

use crate::codec::MAX_FRAME_LEN;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// On-disk record header: `u32` payload length, then `u32` CRC-32 of the
/// payload, both little-endian.
const RECORD_HEADER: usize = 8;

/// Magic prefix of a snapshot file (8 bytes, version baked into the tag).
const SNAPSHOT_MAGIC: &[u8; 8] = b"TDXSNAP1";

// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8. Implemented
// inline because the workspace is offline — no external crc crate — and the
// codec layer has no checksum of its own: socket transports rely on TCP's,
// but a file written across a crash does not get that guarantee.
//
// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
// advances a byte through `k` further zero bytes, so one lookup per table
// folds eight input bytes into the register at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut t = 1;
        while t < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[t][i] = c;
            t += 1;
        }
        i += 1;
    }
    tables
};

/// The CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |v: u32, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let (chunks, rest) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in rest {
        c = t0[byte(c ^ b as u32, 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// An append-only write-ahead log of CRC-guarded records.
///
/// Appends are durable when [`append`](Wal::append) returns: the record is
/// written, flushed and fsync'd before control comes back to the committer.
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal { file, path })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs. The payload is durable once this
    /// returns `Ok`; a crash mid-call leaves at worst a torn tail that
    /// [`replay`] drops.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| (l as usize) <= MAX_FRAME_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL record of {} bytes exceeds MAX_FRAME_LEN",
                        payload.len()
                    ),
                )
            })?;
        let mut buf = Vec::with_capacity(RECORD_HEADER + payload.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        // One write so a torn append can only ever be a *prefix* of the
        // record, never an interleaving.
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }

    /// Truncates the log to empty (after a snapshot has made its records
    /// redundant) and fsyncs.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()
    }

    /// Cuts the log back to `len` bytes — recovery's way of discarding a
    /// torn tail ([`Replay::valid_len`]) so later appends extend the valid
    /// prefix instead of an undecodable one.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }
}

/// The result of replaying a log file: the committed record payloads, in
/// append order, plus what the scan saw at the tail.
pub struct Replay {
    /// Payloads of every complete, checksum-valid record, in order.
    pub records: Vec<Vec<u8>>,
    /// Bytes covered by those records — the offset where the valid prefix
    /// ends.
    pub valid_len: u64,
    /// Whether trailing bytes past the valid prefix were dropped (a torn or
    /// corrupt tail).
    pub torn: bool,
}

/// Replays the log at `path`. A missing file is an empty log; a torn or
/// corrupt tail terminates the scan at the last valid record (`torn` set)
/// rather than erroring — the dropped suffix is by construction a commit
/// that never acknowledged.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let (records, valid_len) = parse_records(&bytes);
    Ok(Replay {
        records,
        valid_len: valid_len as u64,
        torn: valid_len < bytes.len(),
    })
}

/// Scans `bytes` as a record sequence, returning the payloads of the valid
/// prefix and its length in bytes. Any malformed record — truncated header,
/// length past the buffer or [`MAX_FRAME_LEN`], checksum mismatch — ends
/// the scan.
pub fn parse_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    // Every byte here may be torn or corrupt, so the scan is written
    // entirely in checked splits — no slice arithmetic that could panic
    // on a malformed header.
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(rest) = bytes.get(pos..) {
        let Some((len4, after_len)) = rest.split_first_chunk::<4>() else {
            break;
        };
        let Some((crc4, body)) = after_len.split_first_chunk::<4>() else {
            break;
        };
        let len = u32::from_le_bytes(*len4) as usize;
        let crc = u32::from_le_bytes(*crc4);
        if len > MAX_FRAME_LEN {
            break;
        }
        let Some(payload) = body.get(..len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER + len;
    }
    (records, pos)
}

/// Writes `payload` as the snapshot at `path`, atomically: the bytes land
/// in a temp file first, are fsync'd, and replace any previous snapshot by
/// rename. The containing directory is fsync'd afterwards so the rename
/// itself is durable.
pub fn write_snapshot(path: &Path, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(SNAPSHOT_MAGIC)?;
        f.write_all(&(payload.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync is advisory on non-Unix targets; ignore ENOTSUP-
        // style failures but not the happy path.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads the snapshot at `path`. `Ok(None)` when no snapshot exists; an
/// `InvalidData` error when one exists but its magic, length or checksum
/// does not hold — a corrupt snapshot must fail loudly, never restore a
/// wrong state. The envelope is read on its own, so the returned payload
/// is the one buffer the file's bytes were read into.
pub fn read_snapshot(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt snapshot: {what}"),
        )
    };
    let mut envelope = [0u8; SNAPSHOT_MAGIC.len() + RECORD_HEADER];
    match f.read_exact(&mut envelope) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(corrupt("file shorter than its header"));
        }
        Err(e) => return Err(e),
    }
    // Checked splits only: a damaged envelope is corrupt input to report,
    // never a slice panic (see `parse_records`).
    let Some((magic, rest)) = envelope.split_first_chunk::<8>() else {
        return Err(corrupt("file shorter than its header"));
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic (not a snapshot, or an unknown version)"));
    }
    let Some((len4, rest)) = rest.split_first_chunk::<4>() else {
        return Err(corrupt("file shorter than its header"));
    };
    let Some((crc4, _)) = rest.split_first_chunk::<4>() else {
        return Err(corrupt("file shorter than its header"));
    };
    let len = u32::from_le_bytes(*len4) as usize;
    let crc = u32::from_le_bytes(*crc4);
    if len > MAX_FRAME_LEN {
        return Err(corrupt("length prefix does not match file size"));
    }
    let mut payload = Vec::new();
    f.read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(corrupt("length prefix does not match file size"));
    }
    if crc32(&payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tdx-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE reference values ("check" value of the CRC catalogue).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time kernel the slicing-by-8 one replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// A deterministic xorshift byte buffer.
    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_kernel() {
        // Every length across several 8-byte chunks plus a remainder, at
        // every alignment of the chunk walk's start.
        let buf = seeded_bytes(8 + 67, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=67 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 0xD1B5_4A32_D192_ED03);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let payloads: [&[u8]; 4] = [b"", b"a", b"hello world", &[0xAB; 1000]];
        let mut wal = Wal::open(&path).unwrap();
        for p in payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        let r = replay(&path).unwrap();
        assert_eq!(r.records, payloads.map(|p| p.to_vec()).to_vec());
        assert!(!r.torn);
        // Reopening appends after the existing records.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"tail").unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.records[4], b"tail");
        // Truncation empties it.
        wal.truncate().unwrap();
        let r = replay(&path).unwrap();
        assert!(r.records.is_empty() && !r.torn && r.valid_len == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmpdir("missing");
        let r = replay(&dir.join("absent.log")).unwrap();
        assert!(r.records.is_empty() && !r.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_yields_a_record_prefix() {
        let payloads: [&[u8]; 3] = [b"first", b"second record", b"3"];
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(p).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        let mut boundaries = vec![0usize];
        let mut acc = 0;
        for p in payloads {
            acc += RECORD_HEADER + p.len();
            boundaries.push(acc);
        }
        for cut in 0..=bytes.len() {
            let (records, valid) = parse_records(&bytes[..cut]);
            // The parsed prefix is exactly the records whose bytes fit.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(records.len(), expect, "cut at {cut}");
            assert_eq!(valid, boundaries[expect], "cut at {cut}");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.as_slice(), payloads[i]);
            }
        }
    }

    #[test]
    fn byte_flips_never_extend_the_prefix_or_panic() {
        let payloads: [&[u8]; 3] = [b"alpha", b"bravo-charlie", b"x"];
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(p).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        // Deterministic xorshift, same idiom as the protocol corruption
        // sweep.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            let flip = (rng() % 255) as u8 + 1; // non-zero: always changes the byte
            corrupt[pos] ^= flip;
            let (records, valid) = parse_records(&corrupt);
            assert!(valid <= corrupt.len());
            // Every surviving record must be one of the originals at its
            // position — a flip can only shorten the prefix (modulo a
            // 2^-32 CRC collision, which the fixed seed cannot hit).
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.as_slice(), payloads[i], "flip at {pos}");
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_and_atomic_replace() {
        let dir = tmpdir("snapshot");
        let path = dir.join("snapshot.bin");
        assert!(read_snapshot(&path).unwrap().is_none());
        write_snapshot(&path, b"state one").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap(), b"state one");
        write_snapshot(&path, b"state two, longer than before").unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap().unwrap(),
            b"state two, longer than before"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshots_error_cleanly() {
        let dir = tmpdir("snapcorrupt");
        let path = dir.join("snapshot.bin");
        write_snapshot(&path, b"precious state").unwrap();
        let good = std::fs::read(&path).unwrap();
        // Truncations: every strict prefix errors or (length 0 file ... no:
        // a present-but-short file must error, never read as None).
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut at {cut}");
        }
        // Single-byte flips anywhere must error.
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_snapshot(&path).is_err(), "flip at {pos}");
        }
        // Trailing garbage must error.
        let mut bad = good.clone();
        bad.push(0);
        std::fs::write(&path, &bad).unwrap();
        assert!(read_snapshot(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
