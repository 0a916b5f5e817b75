//! Checkpoint snapshots.
//!
//! A checkpoint is one frame-wrapped, [`Codec`]-encoded image of the whole
//! system at an instant: the base database with every multiplicity counter,
//! each view's materialization (and, for deferred views, its accumulated
//! pending deltas), and the LSN of the last WAL record folded in. Recovery
//! loads the newest checkpoint that passes its checksum and replays only
//! WAL records with higher LSNs.
//!
//! [`CheckpointData`] borrows its large parts — the database, each view's
//! materialization, pending deltas — so a writer encodes the image straight
//! from live state without copying it; decoding yields owned values. Code
//! that needs only an image's LSN (WAL compaction) calls [`verified_lsn`],
//! which checks the frame's checksum in a fixed buffer and reads the LSN
//! from the payload header without decoding the image.
//!
//! Durability of the write itself uses the classic temp-and-rename dance:
//! the image is written to `checkpoint-<seq>.tmp`, synced, renamed to
//! `checkpoint-<seq>.ckpt`, and the directory is synced. A crash at any
//! point leaves either the previous checkpoint set intact or the new file
//! fully in place — never a half-written `.ckpt`.

use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::BufReader;
use std::path::{Path, PathBuf};

use ivm_relational::prelude::*;

use crate::codec::{ByteReader, Codec};
use crate::error::{Result, StorageError};
use crate::frame::{check_frame, read_frame, write_frame};
use crate::wal::FORMAT_VERSION;

/// Record-kind tag distinguishing checkpoint payloads from WAL records if
/// the files are ever confused for one another.
const KIND_CHECKPOINT: u8 = 0x10;

const CKPT_PREFIX: &str = "checkpoint-";
const CKPT_SUFFIX: &str = ".ckpt";
const TMP_SUFFIX: &str = ".tmp";

/// How a stored view is maintained, with the state each kind needs.
#[derive(Debug, Clone)]
pub enum StoredViewKind<'a> {
    /// An SPJ view in the paper's normal form.
    Spj {
        /// The definition, as registered and maintained. Operands may be
        /// other stored views (the registry is a dependency DAG).
        expr: SpjExpr,
        /// Refresh policy, encoded by the maintenance layer (opaque here).
        policy: u8,
        /// Accumulated, relevance-filtered operand deltas not yet folded
        /// in (deferred / on-demand policies), keyed by operand name.
        pending: Vec<(String, Cow<'a, DeltaRelation>)>,
    },
    /// A general-algebra view maintained by tree deltas.
    Tree {
        /// Defining expression tree.
        expr: Expr,
    },
}

/// One view's persistent state inside a checkpoint.
#[derive(Debug, Clone)]
pub struct StoredView<'a> {
    /// View name.
    pub name: String,
    /// Maintenance kind and definition.
    pub kind: StoredViewKind<'a>,
    /// The materialization at checkpoint time, counters included. Stored so
    /// recovery reinstalls views **without re-evaluating them**.
    pub data: Cow<'a, Relation>,
}

/// A complete system image. A writer fills it with borrows of live state;
/// [`read_checkpoint`] returns it fully owned.
#[derive(Debug, Clone)]
pub struct CheckpointData<'a> {
    /// LSN of the last WAL record reflected in this image; replay resumes
    /// strictly after it.
    pub last_lsn: u64,
    /// The base database.
    pub db: Cow<'a, Database>,
    /// Every registered view.
    pub views: Vec<StoredView<'a>>,
}

const VIEW_SPJ: u8 = 0x00;
const VIEW_TREE: u8 = 0x01;

impl Codec for StoredView<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        self.data.encode_into(out);
        match &self.kind {
            StoredViewKind::Spj {
                expr,
                policy,
                pending,
            } => {
                out.push(VIEW_SPJ);
                // The v2 layout has two expression slots; both hold the
                // one definition (see `FORMAT_VERSION`).
                expr.encode_into(out);
                expr.encode_into(out);
                out.push(*policy);
                out.extend_from_slice(&(pending.len() as u32).to_le_bytes());
                for (relation, delta) in pending {
                    out.extend_from_slice(&(relation.len() as u32).to_le_bytes());
                    out.extend_from_slice(relation.as_bytes());
                    delta.encode_into(out);
                }
            }
            StoredViewKind::Tree { expr } => {
                out.push(VIEW_TREE);
                expr.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let name = r.str()?;
        let data = Cow::Owned(Relation::decode_from(r)?);
        let kind = match r.u8()? {
            VIEW_SPJ => {
                let expr = SpjExpr::decode_from(r)?;
                if SpjExpr::decode_from(r)? != expr {
                    return Err(StorageError::Corrupt(format!(
                        "view {name} stores two different definitions"
                    )));
                }
                let policy = r.u8()?;
                let n = r.u32()? as usize;
                r.check_count(n, 16)?;
                let mut pending = Vec::with_capacity(n);
                for _ in 0..n {
                    let relation = r.str()?;
                    let delta = DeltaRelation::decode_from(r)?;
                    pending.push((relation, Cow::Owned(delta)));
                }
                StoredViewKind::Spj {
                    expr,
                    policy,
                    pending,
                }
            }
            VIEW_TREE => StoredViewKind::Tree {
                expr: Expr::decode_from(r)?,
            },
            tag => {
                return Err(StorageError::Corrupt(format!(
                    "bad stored-view tag {tag:#04x}"
                )))
            }
        };
        Ok(StoredView { name, kind, data })
    }
}

impl Codec for CheckpointData<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.last_lsn.to_le_bytes());
        self.db.encode_into(out);
        out.extend_from_slice(&(self.views.len() as u32).to_le_bytes());
        for view in &self.views {
            view.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let last_lsn = r.u64()?;
        let db = Cow::Owned(Database::decode_from(r)?);
        let n = r.u32()? as usize;
        r.check_count(n, 24)?;
        let mut views = Vec::with_capacity(n);
        for _ in 0..n {
            views.push(StoredView::decode_from(r)?);
        }
        Ok(CheckpointData {
            last_lsn,
            db,
            views,
        })
    }
}

fn ckpt_file_name(seq: u64) -> String {
    format!("{CKPT_PREFIX}{seq:016}{CKPT_SUFFIX}")
}

/// Path of checkpoint `seq` inside `dir`, whether or not the file exists.
pub fn checkpoint_path(dir: impl AsRef<Path>, seq: u64) -> PathBuf {
    dir.as_ref().join(ckpt_file_name(seq))
}

fn parse_seq(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix(CKPT_PREFIX)?
        .strip_suffix(CKPT_SUFFIX)?
        .parse()
        .ok()
}

/// Atomically persist a checkpoint as `checkpoint-<seq>.ckpt` in `dir`.
/// Write-to-temp, sync, rename, sync-directory: a crash anywhere leaves the
/// directory with either the old set of checkpoints or the old set plus a
/// complete new one. A failed write (an image over
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) included) removes the
/// temp file and leaves no `.ckpt` behind.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    seq: u64,
    data: &CheckpointData<'_>,
) -> Result<PathBuf> {
    let dir = dir.as_ref();
    let mut payload = vec![FORMAT_VERSION, KIND_CHECKPOINT];
    data.encode_into(&mut payload);

    let tmp_path = dir.join(format!("{CKPT_PREFIX}{seq:016}{TMP_SUFFIX}"));
    let final_path = dir.join(ckpt_file_name(seq));
    let mut tmp = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)
        .map_err(|e| StorageError::io(format!("create {}", tmp_path.display()), e))?;
    let written = write_frame(&mut tmp, &payload).and_then(|()| {
        tmp.sync_all()
            .map_err(|e| StorageError::io("sync checkpoint temp file", e))
    });
    drop(tmp);
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    fs::rename(&tmp_path, &final_path)
        .map_err(|e| StorageError::io(format!("rename into {}", final_path.display()), e))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// `fsync` a directory so a rename within it is durable. Directories cannot
/// be fsynced everywhere; `NotSupported`-style failures are ignored.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(f) => match f.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotSeekable => Ok(()),
            Err(e) if e.raw_os_error() == Some(22) => Ok(()), // EINVAL
            Err(e) => Err(StorageError::io("sync directory", e)),
        },
        Err(e) => Err(StorageError::io(format!("open dir {}", dir.display()), e)),
    }
}

fn open_checkpoint(path: &Path) -> Result<File> {
    File::open(path).map_err(|e| StorageError::io(format!("open checkpoint {}", path.display()), e))
}

fn empty_checkpoint(path: &Path) -> StorageError {
    StorageError::Corrupt(format!("checkpoint {} is empty", path.display()))
}

/// Check an image payload's `[version][kind]` prefix.
fn check_image_header(r: &mut ByteReader<'_>) -> Result<()> {
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != KIND_CHECKPOINT {
        return Err(StorageError::UnknownRecordKind(kind));
    }
    Ok(())
}

/// Read and validate one checkpoint file.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointData<'static>> {
    let path = path.as_ref();
    let mut reader = BufReader::new(open_checkpoint(path)?);
    let payload = read_frame(&mut reader, 0)?.ok_or_else(|| empty_checkpoint(path))?;
    let mut r = ByteReader::new(&payload);
    check_image_header(&mut r)?;
    let data = CheckpointData::decode_from(&mut r)?;
    if r.remaining() > 0 {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after checkpoint image",
            r.remaining()
        )));
    }
    Ok(data)
}

/// The `last_lsn` of a checkpoint file whose frame passes its checksum,
/// without decoding the image: the payload streams through the CRC in a
/// fixed buffer and only its `[version][kind][last_lsn]` header is kept.
///
/// A torn, checksum-failing, oversize, wrong-version or wrong-kind file
/// fails with the same typed error [`read_checkpoint`] returns for it.
pub fn verified_lsn(path: impl AsRef<Path>) -> Result<u64> {
    let path = path.as_ref();
    let mut head = [0u8; 10];
    let len = check_frame(&mut open_checkpoint(path)?, 0, &mut head)?
        .ok_or_else(|| empty_checkpoint(path))?;
    let mut r = ByteReader::new(&head[..head.len().min(len as usize)]);
    check_image_header(&mut r)?;
    r.u64()
}

/// Checkpoint sequence numbers present in `dir`, descending (newest first).
/// Leftover `.tmp` files are ignored — an interrupted write never counts.
pub fn list_checkpoints(dir: impl AsRef<Path>) -> Result<Vec<u64>> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StorageError::io(format!("list {}", dir.display()), e)),
    };
    let mut seqs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("read dir entry", e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_seq(name) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(seqs)
}

/// Load the newest checkpoint in `dir` that decodes cleanly, falling back
/// over corrupt ones (each recorded with its error). Returns `None` when no
/// readable checkpoint exists.
///
/// The returned `(seq, data, skipped)` reports which corrupt files were
/// passed over so the caller can surface or clean them up.
#[allow(clippy::type_complexity)]
pub fn latest_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<(u64, CheckpointData<'static>, Vec<(u64, StorageError)>)>> {
    let dir = dir.as_ref();
    let mut skipped = Vec::new();
    for seq in list_checkpoints(dir)? {
        match read_checkpoint(dir.join(ckpt_file_name(seq))) {
            Ok(data) => return Ok(Some((seq, data, skipped))),
            Err(e) if e.is_corruption() => skipped.push((seq, e)),
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Delete checkpoints older than `keep_newest` sequence numbers. Returns
/// the sequence numbers removed.
pub fn prune_checkpoints(dir: impl AsRef<Path>, keep_newest: usize) -> Result<Vec<u64>> {
    let dir = dir.as_ref();
    let seqs = list_checkpoints(dir)?;
    let mut removed = Vec::new();
    for &seq in seqs.iter().skip(keep_newest) {
        fs::remove_file(dir.join(ckpt_file_name(seq)))
            .map_err(|e| StorageError::io("remove old checkpoint", e))?;
        removed.push(seq);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::scratch_dir;

    fn sample_checkpoint() -> CheckpointData<'static> {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        let mut view_data = Relation::empty(Schema::new(["A"]).unwrap());
        view_data.insert(Tuple::from([1]), 2).unwrap();
        let mut pending = DeltaRelation::empty(Schema::new(["A", "B"]).unwrap());
        pending.add(Tuple::from([3, 30]), 1);
        CheckpointData {
            last_lsn: 17,
            db: Cow::Owned(db),
            views: vec![
                StoredView {
                    name: "V".into(),
                    kind: StoredViewKind::Spj {
                        expr: SpjExpr::new(["R"], Condition::always_true(), None),
                        policy: 1,
                        pending: vec![("R".into(), Cow::Owned(pending))],
                    },
                    data: Cow::Owned(view_data.clone()),
                },
                StoredView {
                    name: "T".into(),
                    kind: StoredViewKind::Tree {
                        expr: Expr::base("R").project(["A"]),
                    },
                    data: Cow::Owned(view_data),
                },
            ],
        }
    }

    fn same_checkpoint(a: &CheckpointData<'_>, b: &CheckpointData<'_>) -> bool {
        // Relation/DeltaRelation have no PartialEq; compare via encoding,
        // which is deterministic.
        a.encode() == b.encode()
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = scratch_dir("ckpt-roundtrip");
        let data = sample_checkpoint();
        write_checkpoint(&dir, 1, &data).unwrap();
        let (seq, back, skipped) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert!(skipped.is_empty());
        assert!(same_checkpoint(&back, &data));
    }

    #[test]
    fn falls_back_over_corrupt_newest() {
        let dir = scratch_dir("ckpt-fallback");
        let data = sample_checkpoint();
        write_checkpoint(&dir, 1, &data).unwrap();
        let newest = write_checkpoint(&dir, 2, &data).unwrap();
        crate::fault::flip_byte(&newest, 20, 0xFF).unwrap();
        let (seq, back, skipped) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert!(same_checkpoint(&back, &data));
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 2);
    }

    #[test]
    fn ignores_tmp_leftovers_and_prunes() {
        let dir = scratch_dir("ckpt-prune");
        let data = sample_checkpoint();
        for seq in 1..=4 {
            write_checkpoint(&dir, seq, &data).unwrap();
        }
        // A torn temp file from an interrupted checkpoint.
        std::fs::write(dir.join("checkpoint-0000000000000005.tmp"), b"junk").unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![4, 3, 2, 1]);
        let removed = prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(removed, vec![2, 1]);
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![4, 3]);
    }

    #[test]
    fn verified_lsn_reads_the_header_of_a_valid_image() {
        let dir = scratch_dir("ckpt-verified-lsn");
        let path = write_checkpoint(&dir, 1, &sample_checkpoint()).unwrap();
        assert_eq!(verified_lsn(&path).unwrap(), 17);
        assert_eq!(read_checkpoint(&path).unwrap().last_lsn, 17);
    }

    #[test]
    fn verified_lsn_rejects_what_read_checkpoint_rejects() {
        let dir = scratch_dir("ckpt-verified-bad");
        let good = std::fs::read(write_checkpoint(&dir, 1, &sample_checkpoint()).unwrap()).unwrap();
        // A well-framed payload with a valid checksum but the wrong kind.
        let mut wrong_kind = Vec::new();
        let mut payload = vec![FORMAT_VERSION, KIND_CHECKPOINT + 1];
        payload.extend_from_slice(&17u64.to_le_bytes());
        write_frame(&mut wrong_kind, &payload).unwrap();
        // ... and one with a valid checksum but a foreign format version.
        let mut wrong_version = Vec::new();
        payload[0] = FORMAT_VERSION + 1;
        write_frame(&mut wrong_version, &payload).unwrap();
        // A valid frame whose payload is too short to hold an LSN.
        let mut short = Vec::new();
        write_frame(&mut short, &[FORMAT_VERSION, KIND_CHECKPOINT, 1]).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x04;
        let mut oversize = good.clone();
        oversize[0..4].copy_from_slice(&u32::MAX.to_le_bytes());

        let cases: [(&str, &[u8]); 8] = [
            ("empty", &[]),
            ("torn header", &good[..5]),
            ("torn payload", &good[..good.len() - 1]),
            ("bit flip", &flipped),
            ("oversize", &oversize),
            ("wrong kind", &wrong_kind),
            ("wrong version", &wrong_version),
            ("short", &short),
        ];
        for (label, bytes) in cases {
            let path = dir.join(format!("{label}.ckpt"));
            std::fs::write(&path, bytes).unwrap();
            let want = read_checkpoint(&path).unwrap_err();
            let got = verified_lsn(&path).unwrap_err();
            assert!(want.is_corruption(), "{label}: {want}");
            assert_eq!(got, want, "{label}");
        }
        let path = dir.join("wrong kind.ckpt");
        assert!(matches!(
            verified_lsn(&path),
            Err(StorageError::UnknownRecordKind(k)) if k == KIND_CHECKPOINT + 1
        ));
    }

    #[test]
    fn oversize_image_leaves_no_file_behind() {
        let dir = scratch_dir("ckpt-oversize");
        let mut data = sample_checkpoint();
        data.views[0].name = "v".repeat(crate::frame::MAX_FRAME_LEN as usize);
        let err = write_checkpoint(&dir, 1, &data).unwrap_err();
        assert!(matches!(err, StorageError::PayloadTooLarge { .. }));
        let left: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "files left behind: {left:?}");
        assert!(latest_checkpoint(&dir).unwrap().is_none());
    }

    #[test]
    fn image_with_two_different_view_definitions_is_corrupt() {
        // An image from a build that maintained a view as a projection of
        // a shared node `~s0` while remembering the expression it was
        // registered with: the two expression slots differ.
        let dir = scratch_dir("ckpt-two-definitions");
        let db = Database::new();
        let view_data = Relation::empty(Schema::new(["A"]).unwrap());
        let maintained = SpjExpr::new(["~s0"], Condition::always_true(), Some(vec!["A".into()]));
        let registered = SpjExpr::new(["R", "S"], Condition::always_true(), Some(vec!["A".into()]));
        let mut payload = vec![FORMAT_VERSION, KIND_CHECKPOINT];
        payload.extend_from_slice(&5u64.to_le_bytes());
        db.encode_into(&mut payload);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(b"va");
        view_data.encode_into(&mut payload);
        payload.push(VIEW_SPJ);
        maintained.encode_into(&mut payload);
        registered.encode_into(&mut payload);
        payload.push(0);
        payload.extend_from_slice(&0u32.to_le_bytes());
        let path = checkpoint_path(&dir, 1);
        let mut file = File::create(&path).unwrap();
        write_frame(&mut file, &payload).unwrap();
        drop(file);
        assert!(matches!(
            read_checkpoint(&path),
            Err(StorageError::Corrupt(msg)) if msg.contains("two different definitions")
        ));

        // The same image with the slots equal decodes.
        let equal = CheckpointData {
            last_lsn: 5,
            db: Cow::Owned(db),
            views: vec![StoredView {
                name: "va".into(),
                kind: StoredViewKind::Spj {
                    expr: registered,
                    policy: 0,
                    pending: Vec::new(),
                },
                data: Cow::Owned(view_data),
            }],
        };
        let path = write_checkpoint(&dir, 2, &equal).unwrap();
        assert!(same_checkpoint(&read_checkpoint(&path).unwrap(), &equal));
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = scratch_dir("ckpt-empty");
        assert!(latest_checkpoint(&dir).unwrap().is_none());
        assert!(latest_checkpoint(dir.join("missing")).unwrap().is_none());
    }
}
