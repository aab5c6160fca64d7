//! The write-ahead round log: length-prefixed, CRC32-checksummed frames
//! with monotonic LSNs, plus atomic snapshots.
//!
//! # On-disk layout
//!
//! `wal.log` is a 16-byte header followed by frames:
//!
//! ```text
//! header:  "MCSWAL01" (8)  base_lsn u64 LE (8)
//! frame:   len u32 LE | crc32 u32 LE | lsn u64 LE | payload (len bytes)
//! ```
//!
//! The CRC covers `lsn ‖ payload`, so a flipped bit anywhere in a frame
//! — length, checksum, LSN, or payload — is detected. LSNs start at
//! `base_lsn` and increase by exactly one per frame; the first frame
//! that fails any check (incomplete bytes, oversized length, checksum
//! mismatch, LSN discontinuity) ends the valid prefix, and recovery
//! truncates the file there. Everything before that point is
//! trustworthy because frames are written append-only and fsync'd at
//! commit points. The [`MAX_FRAME_LEN`] cap is also enforced on write:
//! [`WalWriter::append`] refuses a larger payload before writing a byte,
//! so the log never holds a frame its own recovery would cut.
//!
//! `snapshot.bin` is written to a temporary name, fsync'd, and renamed
//! into place, so a crash mid-snapshot never clobbers the previous one:
//!
//! ```text
//! "MCSSNAP1" (8)  last_lsn u64 LE (8)  payload_len u64 LE (8)
//! crc32 u32 LE (4)  payload
//! ```
//!
//! Replay applies snapshot state first, then WAL frames with
//! `lsn > last_lsn` — which also makes log rotation crash-safe: if the
//! process dies between writing the snapshot and rotating the log, the
//! stale log's frames are all `≤ last_lsn` and are skipped.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mcs_num::rng;
use rand::Rng;

/// File name of the round log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const WAL_MAGIC: [u8; 8] = *b"MCSWAL01";
const SNAPSHOT_MAGIC: [u8; 8] = *b"MCSSNAP1";
/// Header length of `wal.log` in bytes.
pub const WAL_HEADER_LEN: u64 = 16;
/// Per-frame header length (len + crc + lsn) in bytes.
pub const FRAME_HEADER_LEN: u64 = 16;
/// Upper bound on a single frame payload, checked on append and on scan;
/// a corrupted length field can therefore never trigger a huge
/// allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A typed write-ahead-log failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The log file exists but does not start with the WAL magic.
    BadMagic,
    /// The log header is inconsistent with the snapshot (or corrupt).
    BadHeader(String),
    /// The snapshot file exists but is corrupt or truncated.
    BadSnapshot(String),
    /// An append was refused because its payload exceeds
    /// [`MAX_FRAME_LEN`]; nothing was written.
    FrameTooLarge {
        /// The refused payload length in bytes.
        len: usize,
    },
    /// A frame payload failed event decoding during replay.
    BadEvent {
        /// LSN of the offending frame.
        lsn: u64,
        /// What failed to decode.
        detail: String,
    },
    /// A decoded event is illegal in the current ledger state.
    InvalidSequence {
        /// LSN of the offending frame (0 for snapshot payloads).
        lsn: u64,
        /// Which transition was illegal.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal I/O failure: {msg}"),
            WalError::BadMagic => write!(f, "wal file does not start with the MCSWAL01 magic"),
            WalError::BadHeader(msg) => write!(f, "wal header invalid: {msg}"),
            WalError::BadSnapshot(msg) => write!(f, "snapshot invalid: {msg}"),
            WalError::FrameTooLarge { len } => write!(
                f,
                "wal frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
            WalError::BadEvent { lsn, detail } => {
                write!(f, "undecodable event at lsn {lsn}: {detail}")
            }
            WalError::InvalidSequence { lsn, detail } => {
                write!(f, "illegal event sequence at lsn {lsn}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320)

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 over a list of byte slices (IEEE polynomial, as used by zip/png).
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Scanning

/// One validated frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's log sequence number.
    pub lsn: u64,
    /// The event payload bytes.
    pub payload: Vec<u8>,
}

/// Why scanning stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailDefect {
    /// The file ends inside a frame header or payload (torn write).
    Torn {
        /// Byte offset of the incomplete frame.
        offset: u64,
    },
    /// A frame's length field exceeds [`MAX_FRAME_LEN`].
    OversizedFrame {
        /// Byte offset of the frame.
        offset: u64,
        /// The claimed payload length.
        len: u32,
    },
    /// The stored CRC32 does not match the frame contents.
    BadChecksum {
        /// Byte offset of the frame.
        offset: u64,
        /// The LSN the frame claims.
        lsn: u64,
    },
    /// The frame's LSN is not the expected successor.
    NonMonotonicLsn {
        /// Byte offset of the frame.
        offset: u64,
        /// The LSN recovery expected next.
        expected: u64,
        /// The LSN found in the frame.
        found: u64,
    },
}

impl TailDefect {
    /// Byte offset at which the defect begins (= the valid prefix length).
    pub fn offset(&self) -> u64 {
        match self {
            TailDefect::Torn { offset }
            | TailDefect::OversizedFrame { offset, .. }
            | TailDefect::BadChecksum { offset, .. }
            | TailDefect::NonMonotonicLsn { offset, .. } => *offset,
        }
    }
}

/// The result of scanning a WAL byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// LSN of the first frame in this file.
    pub base_lsn: u64,
    /// All frames of the valid prefix, in order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix (header + whole valid frames).
    pub valid_len: u64,
    /// End offsets of the header and of each valid frame — every clean
    /// crash point, in ascending order. `boundaries[0] == 16`.
    pub boundaries: Vec<u64>,
    /// Why scanning stopped early, if it did.
    pub defect: Option<TailDefect>,
}

impl WalScan {
    /// The LSN the next appended frame must carry.
    pub fn next_lsn(&self) -> u64 {
        self.frames.last().map_or(self.base_lsn, |f| f.lsn + 1)
    }
}

/// Scans a WAL byte image, validating the header and every frame, and
/// locating the end of the trustworthy prefix.
///
/// # Errors
///
/// [`WalError::BadHeader`] when the image is shorter than a header and
/// [`WalError::BadMagic`] when the magic is wrong. Frame-level damage is
/// *not* an error: it ends the valid prefix and is reported as the
/// [`TailDefect`].
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(WalError::BadHeader(format!(
            "file is {} bytes, shorter than the {WAL_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let base_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let mut frames = Vec::new();
    let mut boundaries = vec![WAL_HEADER_LEN];
    let mut offset = WAL_HEADER_LEN as usize;
    let mut expected_lsn = base_lsn;
    let mut defect = None;
    while offset < bytes.len() {
        if bytes.len() - offset < FRAME_HEADER_LEN as usize {
            defect = Some(TailDefect::Torn {
                offset: offset as u64,
            });
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let lsn = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().expect("8 bytes"));
        if len > MAX_FRAME_LEN {
            defect = Some(TailDefect::OversizedFrame {
                offset: offset as u64,
                len,
            });
            break;
        }
        let payload_start = offset + FRAME_HEADER_LEN as usize;
        let payload_end = payload_start + len as usize;
        if payload_end > bytes.len() {
            defect = Some(TailDefect::Torn {
                offset: offset as u64,
            });
            break;
        }
        let payload = &bytes[payload_start..payload_end];
        if crc32(&[&bytes[offset + 8..offset + 16], payload]) != crc {
            defect = Some(TailDefect::BadChecksum {
                offset: offset as u64,
                lsn,
            });
            break;
        }
        if lsn != expected_lsn {
            defect = Some(TailDefect::NonMonotonicLsn {
                offset: offset as u64,
                expected: expected_lsn,
                found: lsn,
            });
            break;
        }
        frames.push(Frame {
            lsn,
            payload: payload.to_vec(),
        });
        expected_lsn += 1;
        offset = payload_end;
        boundaries.push(offset as u64);
    }
    Ok(WalScan {
        base_lsn,
        valid_len: *boundaries.last().expect("boundaries start non-empty"),
        frames,
        boundaries,
        defect,
    })
}

/// Encodes one frame (header + payload) for the given LSN. The payload
/// must not exceed [`MAX_FRAME_LEN`]; [`WalWriter::append`] checks that.
pub fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let lsn_bytes = lsn.to_le_bytes();
    let crc = crc32(&[&lsn_bytes, payload]);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&lsn_bytes);
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Writer

/// How recovery opened (or created) the log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOpenMode {
    /// The file did not exist (or held a torn header) and was created.
    Created,
    /// The file existed; `truncated_bytes` of invalid tail were cut.
    Recovered {
        /// Bytes removed from the tail (0 for a clean log).
        truncated_bytes: u64,
    },
}

/// An append-only writer over `wal.log`.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_lsn: u64,
    synced_lsn: u64,
    len_bytes: u64,
    frames_written: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Creates a fresh log at `path` whose first frame will carry
    /// `base_lsn`, fsyncing the header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`WalError::Io`].
    pub fn create(path: &Path, base_lsn: u64) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&base_lsn.to_le_bytes())?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            next_lsn: base_lsn,
            synced_lsn: base_lsn.saturating_sub(1),
            len_bytes: WAL_HEADER_LEN,
            frames_written: 0,
            fsyncs: 1,
        })
    }

    /// Opens an existing log for appending, scanning it and physically
    /// truncating any invalid tail. A missing file (or one shorter than
    /// the header — a crash during creation) is recreated fresh at
    /// `default_base_lsn`.
    ///
    /// # Errors
    ///
    /// [`WalError::BadMagic`] if the file starts with the wrong magic
    /// (refusing to silently wipe a log that may belong to something
    /// else), and [`WalError::Io`] on filesystem failures.
    pub fn open_recovering(
        path: &Path,
        default_base_lsn: u64,
    ) -> Result<(WalWriter, WalScan, WalOpenMode), WalError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err.into()),
        };
        if bytes.len() < WAL_HEADER_LEN as usize {
            let writer = WalWriter::create(path, default_base_lsn)?;
            let scan = WalScan {
                base_lsn: default_base_lsn,
                frames: Vec::new(),
                valid_len: WAL_HEADER_LEN,
                boundaries: vec![WAL_HEADER_LEN],
                defect: None,
            };
            return Ok((writer, scan, WalOpenMode::Created));
        }
        let scan = scan_bytes(&bytes)?;
        let truncated = bytes.len() as u64 - scan.valid_len;
        let mut file = OpenOptions::new().write(true).read(true).open(path)?;
        if truncated > 0 {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let writer = WalWriter {
            file,
            path: path.to_path_buf(),
            next_lsn: scan.next_lsn(),
            synced_lsn: scan.next_lsn().saturating_sub(1),
            len_bytes: scan.valid_len,
            frames_written: 0,
            fsyncs: 0,
        };
        Ok((
            writer,
            scan,
            WalOpenMode::Recovered {
                truncated_bytes: truncated,
            },
        ))
    }

    /// Appends one event payload, returning its LSN. The frame is in the
    /// OS buffer only until [`WalWriter::sync`] runs.
    ///
    /// # Errors
    ///
    /// [`WalError::FrameTooLarge`] for a payload over [`MAX_FRAME_LEN`],
    /// before anything is written; [`WalError::Io`] on write failure. The
    /// in-memory LSN counter is not advanced in either case.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        if payload.len() > MAX_FRAME_LEN as usize {
            return Err(WalError::FrameTooLarge { len: payload.len() });
        }
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, payload);
        self.file.write_all(&frame)?;
        self.next_lsn += 1;
        self.len_bytes += frame.len() as u64;
        self.frames_written += 1;
        Ok(lsn)
    }

    /// Forces everything appended so far to stable storage (the commit
    /// point of the protocol).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the fsync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.synced_lsn = self.next_lsn.saturating_sub(1);
        Ok(())
    }

    /// The LSN the next append will use.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN known to be on stable storage.
    pub fn synced_lsn(&self) -> u64 {
        self.synced_lsn
    }

    /// Current file length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Frames appended through this writer (excludes replayed ones).
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Fsyncs performed by this writer.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn sync_parent_dir(path: &Path) -> Result<(), WalError> {
    if let Some(parent) = path.parent() {
        // Directory fsync is what makes a rename/create durable on
        // POSIX; harmless elsewhere.
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshots

/// Atomically replaces the snapshot in `dir`: write to a temporary
/// name, fsync, rename over [`SNAPSHOT_FILE`], fsync the directory.
///
/// # Errors
///
/// [`WalError::Io`] on any filesystem failure.
pub fn write_snapshot(dir: &Path, last_lsn: u64, payload: &[u8]) -> Result<(), WalError> {
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&last_lsn.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&[payload]).to_le_bytes());
    out.extend_from_slice(payload);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&out)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    sync_parent_dir(&tmp)?;
    Ok(())
}

/// Reads the snapshot in `dir`, if any, returning `(last_lsn, payload)`.
///
/// # Errors
///
/// [`WalError::BadSnapshot`] when the file exists but is truncated,
/// mis-tagged, or fails its checksum — a snapshot is either wholly
/// trustworthy or refused.
pub fn read_snapshot(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, WalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err.into()),
    };
    if bytes.len() < 28 {
        return Err(WalError::BadSnapshot(format!(
            "{} bytes is shorter than the 28-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(WalError::BadSnapshot("wrong magic".to_string()));
    }
    let last_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(28));
    let Some(payload) = end.and_then(|end| bytes.get(28..end)) else {
        return Err(WalError::BadSnapshot(format!(
            "payload truncated: header claims {len} bytes, {} present",
            bytes.len() - 28
        )));
    };
    if crc32(&[payload]) != crc {
        return Err(WalError::BadSnapshot(
            "payload checksum mismatch".to_string(),
        ));
    }
    Ok(Some((last_lsn, payload.to_vec())))
}

// ---------------------------------------------------------------------------
// Crash plans

/// A seeded enumeration of crash points over a WAL image: every frame
/// boundary (clean crashes) plus `torn_per_frame` random offsets strictly
/// inside each frame (torn writes). Deterministic in the seed, so a
/// failing crash offset reproduces exactly.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Seed of the torn-offset stream.
    pub seed: u64,
    /// Torn (mid-frame) crash offsets sampled per frame.
    pub torn_per_frame: usize,
}

impl CrashPlan {
    /// A plan with the default two torn offsets per frame.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan {
            seed,
            torn_per_frame: 2,
        }
    }

    /// All crash offsets for a file whose clean cut points are
    /// `boundaries` (as produced by [`scan_bytes`]), ascending and
    /// deduplicated. Includes offset 0 and a few sub-header offsets —
    /// a crash during log creation must also recover.
    pub fn crash_offsets(&self, boundaries: &[u64]) -> Vec<u64> {
        let mut stream = rng::derived(self.seed, 0xCA55);
        let mut offsets = vec![0u64, WAL_HEADER_LEN / 2];
        offsets.extend_from_slice(boundaries);
        for pair in boundaries.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            for _ in 0..self.torn_per_frame {
                if b > a + 1 {
                    offsets.push(stream.gen_range(a + 1..b));
                }
            }
        }
        offsets.sort_unstable();
        offsets.dedup();
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcs-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, 1).expect("create");
        for payload in [b"alpha".as_slice(), b"".as_slice(), b"gamma!".as_slice()] {
            w.append(payload).expect("append");
        }
        w.sync().expect("sync");
        assert_eq!(w.synced_lsn(), 3);
        let scan = scan_bytes(&std::fs::read(&path).expect("read")).expect("scan");
        assert_eq!(scan.base_lsn, 1);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[2].payload, b"gamma!");
        assert_eq!(scan.defect, None);
        assert_eq!(
            scan.valid_len,
            std::fs::metadata(&path).expect("meta").len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, 1).expect("create");
        w.append(b"keep me").expect("append");
        w.append(b"lose my tail").expect("append");
        w.sync().expect("sync");
        let full = std::fs::read(&path).expect("read");
        // Cut into the middle of the second frame.
        let clean = scan_bytes(&full).expect("scan").boundaries[1];
        std::fs::write(&path, &full[..(clean + 5) as usize]).expect("write torn");
        let (w2, scan, mode) = WalWriter::open_recovering(&path, 1).expect("reopen");
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.defect, Some(TailDefect::Torn { .. })));
        assert_eq!(mode, WalOpenMode::Recovered { truncated_bytes: 5 });
        assert_eq!(w2.next_lsn(), 2);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            scan.valid_len
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_ends_the_valid_prefix() {
        let dir = temp_dir("flip");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, 7).expect("create");
        w.append(b"one").expect("append");
        w.append(b"two").expect("append");
        w.append(b"three").expect("append");
        w.sync().expect("sync");
        let mut bytes = std::fs::read(&path).expect("read");
        let scan = scan_bytes(&bytes).expect("scan");
        // Flip a payload byte of frame 2 (index 1).
        let off = scan.boundaries[1] as usize + FRAME_HEADER_LEN as usize;
        bytes[off] ^= 0x40;
        let damaged = scan_bytes(&bytes).expect("scan damaged");
        assert_eq!(damaged.frames.len(), 1);
        assert!(matches!(
            damaged.defect,
            Some(TailDefect::BadChecksum { lsn: 8, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_is_bounded() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let scan = scan_bytes(&bytes).expect("scan");
        assert!(matches!(
            scan.defect,
            Some(TailDefect::OversizedFrame { len, .. }) if len == MAX_FRAME_LEN + 1
        ));
        assert_eq!(scan.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn oversized_append_is_refused_before_anything_is_written() {
        let dir = temp_dir("oversized");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, 1).expect("create");
        w.append(b"kept").expect("append");
        let len = std::fs::metadata(&path).expect("meta").len();
        let big = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert_eq!(
            w.append(&big),
            Err(WalError::FrameTooLarge { len: big.len() })
        );
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len);
        assert_eq!((w.next_lsn(), w.len_bytes()), (2, len));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_length_past_the_address_space_is_a_bad_snapshot() {
        let dir = temp_dir("snap-len");
        write_snapshot(&dir, 3, b"state bytes").expect("write");
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write forged length");
        assert!(matches!(read_snapshot(&dir), Err(WalError::BadSnapshot(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_round_trip_and_corruption() {
        let dir = temp_dir("snap");
        assert_eq!(read_snapshot(&dir).expect("none yet"), None);
        write_snapshot(&dir, 41, b"state bytes").expect("write");
        assert_eq!(
            read_snapshot(&dir).expect("read"),
            Some((41, b"state bytes".to_vec()))
        );
        // Corrupt one payload byte: refused, typed.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).expect("write corrupt");
        assert!(matches!(read_snapshot(&dir), Err(WalError::BadSnapshot(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_plan_offsets_cover_boundaries_and_interiors() {
        let boundaries = vec![16u64, 40, 80];
        let plan = CrashPlan::new(9);
        let offsets = plan.crash_offsets(&boundaries);
        for b in &boundaries {
            assert!(offsets.contains(b));
        }
        assert!(offsets.iter().any(|o| (17..40).contains(o)));
        assert!(offsets.iter().any(|o| (41..80).contains(o)));
        assert_eq!(offsets, plan.crash_offsets(&boundaries), "deterministic");
    }
}
