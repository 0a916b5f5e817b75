//! Append-only write-ahead log.
//!
//! The WAL is a single file of [`frame`](crate::frame)-wrapped records.
//! Each record carries a format version byte, a kind tag, a monotonically
//! increasing log sequence number (LSN), and a [`Codec`]-encoded body:
//!
//! ```text
//! payload ::= [version u8][kind u8][lsn u64][body]
//! ```
//!
//! Log discipline is *log before apply*: the caller appends (and syncs) a
//! record describing an operation before mutating in-memory state, so a
//! crash at any instant loses at most work that was never acknowledged.
//!
//! Reading is tolerant at the tail and strict everywhere else: a torn or
//! corrupt final frame is the expected signature of a crash mid-append, so
//! [`Wal::scan`] stops there and reports the prefix length that survived;
//! the caller truncates and resumes appending. Corruption *followed by more
//! valid-looking frames* cannot be distinguished from tail corruption
//! without a second checksum chain, so it is treated the same way —
//! everything from the first bad frame on is discarded.

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ivm_relational::prelude::*;

use crate::checkpoint::sync_dir;
use crate::codec::{ByteReader, Codec};
use crate::error::{Result, StorageError};
use crate::frame::{framed_len, read_frame, write_frame};

/// On-disk format version understood by this build.
///
/// v2: checkpoint `StoredViewKind::Spj` has two expression slots. They were
/// written for a view maintained from a different plan than the one it was
/// registered with; every view is now maintained from its registered
/// definition, so the encoder writes that definition into both slots and
/// the decoder rejects an image whose slots differ as corrupt. The slot
/// stays so that the image bytes, and this version, do not change.
pub const FORMAT_VERSION: u8 = 2;

/// Conventional WAL file name inside a storage directory.
pub const WAL_FILE: &str = "wal.log";

const KIND_TXN: u8 = 0x01;
const KIND_CREATE_RELATION: u8 = 0x02;
const KIND_REGISTER_VIEW: u8 = 0x03;
const KIND_REGISTER_TREE_VIEW: u8 = 0x04;

/// One logged operation. Everything that mutates a
/// [`Database`]-plus-views system goes through the log — DDL included, so
/// recovery can rebuild a system whose relations and views were created
/// after the last checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A net-effect transaction against base relations.
    Txn(Transaction),
    /// Creation of an empty base relation.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Its scheme.
        schema: Schema,
    },
    /// Registration of an SPJ view.
    RegisterView {
        /// View name.
        name: String,
        /// Defining expression in SPJ normal form.
        expr: SpjExpr,
        /// Refresh policy, encoded by the maintenance layer (opaque here).
        policy: u8,
    },
    /// Registration of a general-algebra (tree) view.
    RegisterTreeView {
        /// View name.
        name: String,
        /// Defining expression tree.
        expr: Expr,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Txn(_) => KIND_TXN,
            WalRecord::CreateRelation { .. } => KIND_CREATE_RELATION,
            WalRecord::RegisterView { .. } => KIND_REGISTER_VIEW,
            WalRecord::RegisterTreeView { .. } => KIND_REGISTER_TREE_VIEW,
        }
    }

    fn encode_payload(&self, lsn: u64) -> Vec<u8> {
        let mut out = payload_header(self.kind(), lsn);
        match self {
            WalRecord::Txn(txn) => txn.encode_into(&mut out),
            WalRecord::CreateRelation { name, schema } => {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                schema.encode_into(&mut out);
            }
            WalRecord::RegisterView { name, expr, policy } => {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                expr.encode_into(&mut out);
                out.push(*policy);
            }
            WalRecord::RegisterTreeView { name, expr } => {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                expr.encode_into(&mut out);
            }
        }
        out
    }

    /// Decode the body that follows a `kind` header.
    fn decode_body(kind: u8, body: &[u8]) -> Result<WalRecord> {
        let r = &mut ByteReader::new(body);
        let record = match kind {
            KIND_TXN => WalRecord::Txn(Transaction::decode_from(r)?),
            KIND_CREATE_RELATION => WalRecord::CreateRelation {
                name: r.str()?,
                schema: Schema::decode_from(r)?,
            },
            KIND_REGISTER_VIEW => WalRecord::RegisterView {
                name: r.str()?,
                expr: SpjExpr::decode_from(r)?,
                policy: r.u8()?,
            },
            KIND_REGISTER_TREE_VIEW => WalRecord::RegisterTreeView {
                name: r.str()?,
                expr: Expr::decode_from(r)?,
            },
            tag => return Err(StorageError::UnknownRecordKind(tag)),
        };
        if r.remaining() > 0 {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after wal record",
                r.remaining()
            )));
        }
        Ok(record)
    }
}

/// A record payload's `[version][kind][lsn]` header.
fn payload_header(kind: u8, lsn: u64) -> Vec<u8> {
    let mut out = vec![FORMAT_VERSION, kind];
    out.extend_from_slice(&lsn.to_le_bytes());
    out
}

/// Bytes of [`payload_header`]: version, kind, LSN.
const PAYLOAD_HEADER_LEN: usize = 10;

/// One checked frame of a log: its LSN and kind, and the whole payload.
struct Frame {
    lsn: u64,
    kind: u8,
    payload: Vec<u8>,
}

/// Walks a log's frames in order, checking what every reader of the log
/// relies on without decoding any record body: each frame's CRC
/// ([`read_frame`]), the payload's format version, and strictly increasing
/// LSNs. A violation is a typed corruption error that ends the valid
/// prefix.
struct Frames<R> {
    reader: R,
    /// Byte offset of the next frame.
    offset: u64,
    last_lsn: Option<u64>,
}

impl<R: Read> Frames<R> {
    /// The next frame, or `Ok(None)` at a clean end of file.
    fn next(&mut self) -> Result<Option<Frame>> {
        let Some(payload) = read_frame(&mut self.reader, self.offset)? else {
            return Ok(None);
        };
        let mut r = ByteReader::new(&payload);
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let kind = r.u8()?;
        let lsn = r.u64()?;
        if let Some(previous) = self.last_lsn.filter(|&prev| lsn <= prev) {
            return Err(StorageError::LsnOutOfOrder {
                previous,
                found: lsn,
            });
        }
        self.last_lsn = Some(lsn);
        self.offset += framed_len(payload.len());
        Ok(Some(Frame { lsn, kind, payload }))
    }
}

/// The frames of the log at `path`, or `None` when there is no file — a
/// system that crashed before its first append is indistinguishable from a
/// fresh one.
fn frames(path: &Path) -> Result<Option<Frames<BufReader<File>>>> {
    match File::open(path) {
        Ok(f) => Ok(Some(Frames {
            reader: BufReader::new(f),
            offset: 0,
            last_lsn: None,
        })),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StorageError::io(format!("open wal {}", path.display()), e)),
    }
}

/// Running counters for one open WAL handle, surfaced by the shell's
/// `\wal-stats` command, the observability layer and the benches.
///
/// These are *cumulative for the handle's lifetime*: compaction rewrites
/// the file smaller but does not roll any of them back. The live file
/// size is a property of the file, not the handle — use
/// [`Wal::len_bytes`] (or `fs::metadata`) for that, and
/// [`WalStats::bytes_reclaimed`] for how much compaction has saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended through this handle.
    pub records_appended: u64,
    /// Payload + frame-header bytes appended through this handle.
    pub bytes_appended: u64,
    /// Explicit sync points issued.
    pub syncs: u64,
    /// Compaction passes that actually rewrote the log (no-op passes with
    /// nothing to drop are not counted).
    pub compactions: u64,
    /// Total bytes removed from the log file by compaction.
    pub bytes_reclaimed: u64,
}

/// The outcome of scanning a WAL file from the start.
#[derive(Debug)]
pub struct WalScan {
    /// Every `(lsn, record)` in the valid prefix, in log order.
    pub records: Vec<(u64, WalRecord)>,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// The error that terminated the scan, if the file did not end
    /// cleanly. `None` means every frame was intact.
    pub truncated_by: Option<StorageError>,
}

impl WalScan {
    /// Highest LSN in the valid prefix, if any record survived.
    pub fn last_lsn(&self) -> Option<u64> {
        self.records.last().map(|(lsn, _)| *lsn)
    }
}

/// An open, append-only log handle.
#[derive(Debug)]
pub struct Wal {
    file: BufWriter<File>,
    path: PathBuf,
    next_lsn: u64,
    end_offset: u64,
    stats: WalStats,
}

impl Wal {
    /// Create a fresh, empty log (truncating any existing file). The first
    /// appended record gets LSN `first_lsn`.
    pub fn create(path: impl AsRef<Path>, first_lsn: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StorageError::io(format!("create wal {}", path.display()), e))?;
        Ok(Wal {
            file: BufWriter::new(file),
            path,
            next_lsn: first_lsn,
            end_offset: 0,
            stats: WalStats::default(),
        })
    }

    /// Open an existing log for appending after its valid prefix, which the
    /// caller obtained from [`Wal::scan`] (typically followed by
    /// [`Wal::truncate_to`] when the scan found a torn tail).
    pub fn open(path: impl AsRef<Path>, valid_len: u64, next_lsn: u64) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::io(format!("open wal {}", path.display()), e))?;
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| StorageError::io("seek wal to valid prefix", e))?;
        Ok(Wal {
            file: BufWriter::new(file),
            path,
            next_lsn,
            end_offset: valid_len,
            stats: WalStats::default(),
        })
    }

    /// Drop everything past the valid prefix of a damaged log. Separate
    /// from [`Wal::open`] so callers can decide (and log/report) before any
    /// destructive action.
    pub fn truncate_to(path: impl AsRef<Path>, valid_len: u64) -> Result<()> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open wal {}", path.display()), e))?;
        file.set_len(valid_len)
            .map_err(|e| StorageError::io("truncate wal", e))?;
        file.sync_data()
            .map_err(|e| StorageError::io("sync truncated wal", e))?;
        Ok(())
    }

    /// Append one record; returns its assigned LSN. The record is framed
    /// and buffered — call [`Wal::sync`] to make it durable.
    ///
    /// A record whose encoding exceeds
    /// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) is refused with
    /// [`StorageError::PayloadTooLarge`]; nothing is written and the LSN is
    /// not consumed.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        self.append_payload(record.encode_payload(self.next_lsn))
    }

    /// [`Wal::append`] of a [`WalRecord::Txn`], encoded from the borrowed
    /// transaction: same bytes on disk, without copying the transaction
    /// into a record first.
    pub fn append_txn(&mut self, txn: &Transaction) -> Result<u64> {
        let mut payload = payload_header(KIND_TXN, self.next_lsn);
        txn.encode_into(&mut payload);
        self.append_payload(payload)
    }

    fn append_payload(&mut self, payload: Vec<u8>) -> Result<u64> {
        let lsn = self.next_lsn;
        write_frame(&mut self.file, &payload)?;
        self.next_lsn += 1;
        self.end_offset += framed_len(payload.len());
        self.stats.records_appended += 1;
        self.stats.bytes_appended += framed_len(payload.len());
        Ok(lsn)
    }

    /// Explicit sync point: flush buffered frames and `fdatasync` the file.
    /// After this returns, every appended record survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| StorageError::io("flush wal", e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| StorageError::io("sync wal", e))?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Current file length in bytes (including unsynced buffered frames).
    pub fn len_bytes(&self) -> u64 {
        self.end_offset
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counters for this handle.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Drop every record with LSN `<= up_to_lsn` by rewriting the log to a
    /// temp file and atomically renaming it into place. Returns the new
    /// file length in bytes.
    ///
    /// Kept records are copied frame by frame, their payloads verbatim:
    /// each frame's checksum, version and LSN order are checked as
    /// [`Wal::scan`] checks them, but no record is decoded. The copy stops
    /// at the first frame that fails those checks, as a scan would.
    ///
    /// The caller is responsible for only passing LSNs that are covered by
    /// a durable checkpoint that recovery is guaranteed to find — records
    /// below that point can never be replayed again, so removing them loses
    /// nothing. Compaction preserves the handle's LSN counter and stats; a
    /// crash at any instant leaves either the old complete log or the new
    /// complete log, never a mix.
    pub fn compact_through(&mut self, up_to_lsn: u64) -> Result<u64> {
        // Make sure the walk below sees every buffered frame.
        self.sync()?;
        let Some(mut frames) = frames(&self.path)? else {
            return Ok(self.end_offset);
        };
        let mut next = || match frames.next() {
            Err(e) if e.is_corruption() => Ok(None),
            other => other,
        };
        match next()? {
            Some(first) if first.lsn <= up_to_lsn => {}
            _ => return Ok(self.end_offset), // nothing to drop
        }

        let tmp_path = self.path.with_extension("compact");
        let tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| StorageError::io(format!("create {}", tmp_path.display()), e))?;
        let mut writer = BufWriter::new(tmp);
        let mut new_len = 0u64;
        while let Some(frame) = next()? {
            if frame.lsn > up_to_lsn {
                write_frame(&mut writer, &frame.payload)?;
                new_len += framed_len(frame.payload.len());
            }
        }
        writer
            .flush()
            .map_err(|e| StorageError::io("flush compacted wal", e))?;
        writer
            .get_ref()
            .sync_data()
            .map_err(|e| StorageError::io("sync compacted wal", e))?;
        drop(writer);
        fs::rename(&tmp_path, &self.path)
            .map_err(|e| StorageError::io(format!("rename into {}", self.path.display()), e))?;
        if let Some(parent) = self.path.parent() {
            sync_dir(parent)?;
        }

        // Swap the handle onto the new file, seeked to its end; the LSN
        // counter and per-handle stats carry over untouched.
        let mut file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| StorageError::io(format!("reopen wal {}", self.path.display()), e))?;
        file.seek(SeekFrom::Start(new_len))
            .map_err(|e| StorageError::io("seek compacted wal to end", e))?;
        self.file = BufWriter::new(file);
        self.stats.compactions += 1;
        self.stats.bytes_reclaimed += self.end_offset.saturating_sub(new_len);
        self.end_offset = new_len;
        Ok(new_len)
    }

    /// Scan a log file from the beginning, collecting every record in the
    /// valid prefix. A missing file scans as empty — a system that crashed
    /// before its first append is indistinguishable from a fresh one.
    ///
    /// Corruption does **not** return `Err`: it ends the valid prefix and
    /// is reported in [`WalScan::truncated_by`]. `Err` is reserved for
    /// environmental failures (permissions, I/O errors) where truncating
    /// would destroy data that might be readable later. LSNs must increase
    /// strictly; a regression marks the offending frame as corrupt.
    pub fn scan(path: impl AsRef<Path>) -> Result<WalScan> {
        let mut records = Vec::new();
        let Some(mut frames) = frames(path.as_ref())? else {
            return Ok(WalScan {
                records,
                valid_len: 0,
                truncated_by: None,
            });
        };
        loop {
            let start = frames.offset;
            let truncated_by = match frames.next() {
                Ok(None) => None,
                Ok(Some(frame)) => {
                    match WalRecord::decode_body(frame.kind, &frame.payload[PAYLOAD_HEADER_LEN..]) {
                        Ok(record) => {
                            records.push((frame.lsn, record));
                            continue;
                        }
                        Err(e) => Some(e),
                    }
                }
                Err(e) if e.is_corruption() => Some(e),
                Err(e) => return Err(e),
            };
            return Ok(WalScan {
                records,
                valid_len: start,
                truncated_by,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::scratch_dir;

    fn sample_txn() -> Transaction {
        let mut txn = Transaction::new();
        txn.insert("R", [1, 2]).unwrap();
        txn.delete("R", [3, 4]).unwrap();
        txn.insert("S", [5]).unwrap();
        txn
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = scratch_dir("wal-roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        let records = vec![
            WalRecord::CreateRelation {
                name: "R".into(),
                schema: Schema::new(["A", "B"]).unwrap(),
            },
            WalRecord::Txn(sample_txn()),
            WalRecord::RegisterView {
                name: "V".into(),
                expr: SpjExpr::new(["R"], Condition::always_true(), None),
                policy: 2,
            },
            WalRecord::RegisterTreeView {
                name: "T".into(),
                expr: Expr::base("R").union(Expr::base("R")),
            },
        ];
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(wal.append(rec).unwrap(), 1 + i as u64);
        }
        wal.sync().unwrap();
        assert_eq!(wal.stats().records_appended, 4);
        assert_eq!(wal.stats().syncs, 1);

        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(scan.last_lsn(), Some(4));
        assert_eq!(scan.valid_len, wal.len_bytes());
        let replayed: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = scratch_dir("wal-missing");
        let scan = Wal::scan(dir.join("nonexistent.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.truncated_by.is_none());
    }

    #[test]
    fn torn_tail_truncates_and_resumes() {
        let dir = scratch_dir("wal-torn");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        wal.sync().unwrap();
        let full = wal.len_bytes();
        drop(wal);

        // Tear the last frame.
        crate::fault::truncate_file(&path, full - 3).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            scan.truncated_by,
            Some(StorageError::TornFrame { .. })
        ));

        // Truncate and resume appending where the valid prefix ended.
        Wal::truncate_to(&path, scan.valid_len).unwrap();
        let next = scan.last_lsn().unwrap() + 1;
        let mut wal = Wal::open(&path, scan.valid_len, next).unwrap();
        wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        wal.sync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(scan.last_lsn(), Some(next));
    }

    #[test]
    fn compact_drops_prefix_and_keeps_appending() {
        let dir = scratch_dir("wal-compact");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        for _ in 0..5 {
            wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        }
        wal.sync().unwrap();
        let full_len = wal.len_bytes();

        // Dropping LSNs 1..=3 shrinks the file and keeps exactly 4 and 5.
        let new_len = wal.compact_through(3).unwrap();
        assert!(new_len < full_len, "compaction did not shrink the log");
        assert_eq!(wal.len_bytes(), new_len);
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(
            scan.records.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(scan.valid_len, new_len);

        // The handle stays live: the next append continues at LSN 6.
        assert_eq!(wal.append(&WalRecord::Txn(sample_txn())).unwrap(), 6);
        wal.sync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(scan.last_lsn(), Some(6));
        assert_eq!(scan.valid_len, wal.len_bytes());

        // Compacting below the first surviving LSN is a no-op.
        let len_before = wal.len_bytes();
        assert_eq!(wal.compact_through(3).unwrap(), len_before);

        // Compacting through everything empties the file.
        assert_eq!(wal.compact_through(6).unwrap(), 0);
        assert_eq!(wal.append(&WalRecord::Txn(sample_txn())).unwrap(), 7);
        wal.sync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(scan.last_lsn(), Some(7));
    }

    #[test]
    fn lsn_regression_is_corruption() {
        let dir = scratch_dir("wal-lsn");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 5).unwrap();
        wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // A second handle started with a stale LSN writes a regressing
        // record; the scan must cut before it.
        let scan = Wal::scan(&path).unwrap();
        let mut stale = Wal::open(&path, scan.valid_len, 5).unwrap();
        stale.append(&WalRecord::Txn(sample_txn())).unwrap();
        stale.sync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            scan.truncated_by,
            Some(StorageError::LsnOutOfOrder { .. })
        ));
    }

    #[test]
    fn append_txn_writes_the_bytes_of_append() {
        let dir = scratch_dir("wal-append-txn");
        let (a, b) = (dir.join("a.log"), dir.join("b.log"));
        let mut owned = Wal::create(&a, 3).unwrap();
        let mut borrowed = Wal::create(&b, 3).unwrap();
        for _ in 0..2 {
            let txn = sample_txn();
            assert_eq!(
                owned.append(&WalRecord::Txn(txn.clone())).unwrap(),
                borrowed.append_txn(&txn).unwrap()
            );
        }
        owned.sync().unwrap();
        borrowed.sync().unwrap();
        assert_eq!(owned.stats(), borrowed.stats());
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn oversize_record_is_refused_before_the_commit_point() {
        let dir = scratch_dir("wal-oversize");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(&WalRecord::Txn(sample_txn())).unwrap();
        wal.sync().unwrap();
        let (len, next) = (wal.len_bytes(), wal.next_lsn());

        let huge = WalRecord::CreateRelation {
            name: "r".repeat(crate::frame::MAX_FRAME_LEN as usize),
            schema: Schema::new(["A"]).unwrap(),
        };
        let err = wal.append(&huge).unwrap_err();
        assert!(matches!(err, StorageError::PayloadTooLarge { .. }));
        wal.sync().unwrap();
        assert_eq!(wal.len_bytes(), len);
        assert_eq!(wal.next_lsn(), next);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);

        // The handle stays usable and the log stays clean.
        assert_eq!(wal.append(&WalRecord::Txn(sample_txn())).unwrap(), next);
        wal.sync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(scan.last_lsn(), Some(next));
    }

    #[test]
    fn compaction_copies_kept_frames_verbatim() {
        let dir = scratch_dir("wal-compact-verbatim");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        let mut ends = Vec::new();
        for i in 0..4 {
            let mut txn = sample_txn();
            txn.insert("T", [i]).unwrap();
            wal.append_txn(&txn).unwrap();
            ends.push(wal.len_bytes());
        }
        wal.sync().unwrap();
        let before = std::fs::read(&path).unwrap();
        wal.compact_through(2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            &before[ends[1] as usize..],
            "kept frames changed"
        );
    }

    #[test]
    fn compaction_stops_at_a_corrupt_frame_like_scan() {
        let dir = scratch_dir("wal-compact-corrupt");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path, 1).unwrap();
        let mut ends = Vec::new();
        for _ in 0..4 {
            wal.append(&WalRecord::Txn(sample_txn())).unwrap();
            ends.push(wal.len_bytes());
        }
        wal.sync().unwrap();
        // Damage record 4: compaction through 1 keeps 2 and 3 only.
        crate::fault::flip_byte(&path, ends[3] - 1, 0x10).unwrap();
        let new_len = wal.compact_through(1).unwrap();
        assert_eq!(new_len, ends[2] - ends[0]);
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.truncated_by.is_none());
        assert_eq!(
            scan.records.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }
}
