//! Campaign checkpointing: periodic serialization of per-fault results to a
//! sidecar file, so an interrupted campaign can resume where it left off.
//!
//! One on-disk format (v2) serves every producer — `--checkpoint` sidecars,
//! the per-shard files of [`crate::shard`], spool results and the shard
//! uploads of remote workers: packed binary, little-endian, hand-rolled (no
//! serialization dependency), with a CRC32 over every header and record
//! payload and an explicit end-of-file trailer carrying the record count:
//!
//! ```text
//! "moa-ckpt-v2\n"                                   12-byte magic
//! u32 len | header payload | u32 crc32(payload)     header
//!     payload: u32 name-len, circuit name bytes,
//!              u64 total-faults (campaign-global), u64 seq-len,
//!              u32 shard-id, u32 shard-count, u64 offset, u64 len
//! 0x01 | u32 len | record payload | u32 crc32       one per completed fault
//!     payload: u64 global-index, u64 runs,
//!              u64 n_det, u64 n_conf, u64 n_extra,
//!              u8 status-code, status fields…
//! 0x02 | u64 record-count | u32 crc32(count)        end-of-shard trailer
//! ```
//!
//! An unsharded checkpoint is simply shard 0 of 1 covering `[0, total)`.
//! One record per *completed* fault, in any order; unfinished faults simply
//! have no record. The header's campaign identity (circuit, fault count,
//! sequence length, shard geometry) guards a resume against being pointed
//! at a checkpoint from a different campaign. Statuses round-trip exactly
//! ([`FaultStatus`] is `Eq`), so a resumed campaign aggregates a
//! [`CampaignResult`](crate::CampaignResult) identical to an uninterrupted
//! run — asserted by the integration tests.
//!
//! [`write_checkpoint_v2`] goes through a temp file that is flushed *and
//! fsynced* before the atomic rename, so neither an interrupt mid-write nor
//! a machine crash shortly after the rename can publish a half-written
//! checkpoint.
//!
//! # Corruption tolerance
//!
//! Checkpoints damaged by other means (a copy interrupted mid-transfer, a
//! filesystem without atomic rename, bit rot) are read by one of two
//! readers that share the decoder but differ in temperament:
//!
//! - the *lenient* resume path ([`read_checkpoint`] /
//!   [`read_checkpoint_sharded`]) degrades instead of aborting: a record
//!   with a bad checksum, a malformed payload, an out-of-range index or a
//!   duplicate index is skipped with a located [`CheckpointSkip`] warning,
//!   returned in [`CheckpointLoad::skipped`] and surfaced through
//!   [`CampaignResult::resume_skipped`](crate::CampaignResult::resume_skipped);
//!   a torn tail is dropped. The affected faults are simply re-simulated;
//! - the *strict* merge path ([`read_shard`]) treats **any** damage —
//!   checksum mismatch, torn record, missing or lying trailer, duplicate or
//!   out-of-range index — as a located hard error, because a merge must
//!   never paper over a corrupt transfer.
//!
//! On both paths the header stays strict: a missing magic (including any
//! file that is not v2), a damaged header or a campaign-identity mismatch
//! is a hard [`Error::Checkpoint`], because nothing in the body can be
//! trusted without it.

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use moa_sim::Detection;

use crate::budget::BudgetStage;
use crate::collect::PairKey;
use crate::counters::Counters;
use crate::error::Error;
use crate::procedure::{DegradeStage, FaultResult, FaultStatus, PartialBound};

/// Campaign identity stamped into a checkpoint header and validated on
/// resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// The circuit's name.
    pub circuit: String,
    /// Number of faults in the campaign's fault list.
    pub total_faults: usize,
    /// Length of the test sequence.
    pub seq_len: usize,
}

/// A corrupt checkpoint record that resume skipped instead of aborting on.
/// The record's fault is simply re-simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSkip {
    /// 1-based ordinal of the damaged record in the file, or 0 for damage
    /// after the record stream (a torn, missing or lying trailer).
    pub record: usize,
    /// What was wrong with it, located by byte offset where one applies.
    pub message: String,
}

impl std::fmt::Display for CheckpointSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// A successfully loaded checkpoint: the per-fault slots plus any damaged
/// records that were skipped along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointLoad {
    /// One entry per fault; `None` = not yet simulated (or its record was
    /// damaged and dropped).
    pub slots: Vec<Option<FaultResult>>,
    /// Corrupt records skipped with their locations, in file order.
    pub skipped: Vec<CheckpointSkip>,
}

/// Reads an unsharded checkpoint back, validating it against the expected
/// campaign identity. Header problems are hard errors; damaged body records
/// are skipped and reported in [`CheckpointLoad::skipped`].
pub fn read_checkpoint(path: &Path, expected: &CheckpointHeader) -> Result<CheckpointLoad, Error> {
    read_checkpoint_impl(path, expected, None)
}

/// Reads one shard's checkpoint leniently for a *resume* of that shard's
/// campaign: `expected` is the shard-local identity (its `total_faults` is
/// the shard's fault count) and `shard` the shard's place in the global
/// campaign. Record indices are translated from global to shard-local.
///
/// Damage handling matches [`read_checkpoint`]; the strict cross-shard
/// reader for merges is [`read_shard`].
pub fn read_checkpoint_sharded(
    path: &Path,
    expected: &CheckpointHeader,
    shard: &ShardInfo,
) -> Result<CheckpointLoad, Error> {
    read_checkpoint_impl(path, expected, Some(shard))
}

// ---------------------------------------------------------------------------
// Format v2: packed binary, per-record CRC32, end-of-shard trailer.
// ---------------------------------------------------------------------------

/// Magic prefix of a v2 checkpoint / shard file.
const MAGIC_V2: &[u8] = b"moa-ckpt-v2\n";
/// Body tag: one completed fault record.
const TAG_RECORD: u8 = 0x01;
/// Body tag: the end-of-shard trailer.
const TAG_TRAILER: u8 = 0x02;

/// IEEE CRC32 (polynomial `0xEDB8_8320`), table-driven; the table is built
/// at compile time so the checksum costs one lookup per byte.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 of `bytes` (IEEE, init and final XOR `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// A shard's place inside a partitioned campaign, stamped into every v2
/// header: this shard covers the contiguous global fault-index range
/// `[offset, offset + len)` of a campaign with `total_faults` faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's id, `0 ≤ shard_id < shard_count`.
    pub shard_id: u32,
    /// Number of shards the campaign was partitioned into.
    pub shard_count: u32,
    /// Global index of this shard's first fault.
    pub offset: u64,
    /// Number of faults in this shard.
    pub len: u64,
    /// Fault count of the *whole* campaign (all shards together).
    pub total_faults: u64,
}

impl ShardInfo {
    /// The trivial partition: one shard covering the whole campaign.
    pub fn unsharded(total_faults: usize) -> Self {
        ShardInfo {
            shard_id: 0,
            shard_count: 1,
            offset: 0,
            len: total_faults as u64,
            total_faults: total_faults as u64,
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn budget_stage_code(stage: BudgetStage) -> u8 {
    match stage {
        BudgetStage::Collection => 0,
        BudgetStage::Expansion => 1,
        BudgetStage::Resimulation => 2,
    }
}

fn budget_stage_from_code(code: u8) -> Result<BudgetStage, String> {
    match code {
        0 => Ok(BudgetStage::Collection),
        1 => Ok(BudgetStage::Expansion),
        2 => Ok(BudgetStage::Resimulation),
        other => Err(format!("bad budget-stage code {other}")),
    }
}

fn degrade_stage_code(stage: DegradeStage) -> u8 {
    match stage {
        DegradeStage::ExpansionOnly => 0,
        DegradeStage::Conventional => 1,
    }
}

fn degrade_stage_from_code(code: u8) -> Result<DegradeStage, String> {
    match code {
        0 => Ok(DegradeStage::ExpansionOnly),
        1 => Ok(DegradeStage::Conventional),
        other => Err(format!("bad degrade-stage code {other}")),
    }
}

/// Appends the binary encoding of `status` (code byte + fields).
pub(crate) fn encode_status(buf: &mut Vec<u8>, status: &FaultStatus) {
    match status {
        FaultStatus::DetectedConventional(d) => {
            buf.push(0);
            put_u64(buf, d.time as u64);
            put_u64(buf, d.output as u64);
        }
        FaultStatus::SkippedConditionC => buf.push(1),
        FaultStatus::DetectedByImplications(k) => {
            buf.push(2);
            put_u64(buf, k.u as u64);
            put_u64(buf, k.i as u64);
        }
        FaultStatus::DetectedByForcedAssignments => buf.push(3),
        FaultStatus::DetectedByExpansion { sequences } => {
            buf.push(4);
            put_u64(buf, *sequences as u64);
        }
        FaultStatus::NotDetected {
            undecided,
            sequences,
            truncated,
            aborted,
        } => {
            buf.push(5);
            put_u64(buf, *undecided as u64);
            put_u64(buf, *sequences as u64);
            buf.push(u8::from(*truncated));
            buf.push(u8::from(*aborted));
        }
        FaultStatus::Untestable { proof } => {
            buf.push(6);
            buf.push(match proof {
                moa_analyze::UntestableProof::Unobservable => 0,
                moa_analyze::UntestableProof::ConstantLine { value: false } => 1,
                moa_analyze::UntestableProof::ConstantLine { value: true } => 2,
            });
        }
        FaultStatus::BudgetExceeded { stage, work } => {
            buf.push(7);
            buf.push(budget_stage_code(*stage));
            put_u64(buf, *work);
        }
        FaultStatus::PartialVerdict {
            lower_bound,
            stage_reached,
            tripped,
            work_spent,
        } => {
            buf.push(8);
            buf.push(degrade_stage_code(*stage_reached));
            buf.push(budget_stage_code(*tripped));
            put_u64(buf, *work_spent);
            match lower_bound {
                PartialBound::Detected { sequences } => {
                    buf.push(0);
                    put_u64(buf, *sequences as u64);
                }
                PartialBound::NotDetected {
                    undecided,
                    sequences,
                } => {
                    buf.push(1);
                    put_u64(buf, *undecided as u64);
                    put_u64(buf, *sequences as u64);
                }
                PartialBound::Unknown => buf.push(2),
            }
        }
        FaultStatus::Faulted { message } => {
            buf.push(9);
            put_str(buf, message);
        }
        FaultStatus::AuditFailed { reason } => {
            buf.push(10);
            put_str(buf, reason);
        }
    }
}

/// A bounds-checked little-endian read cursor over a byte slice; every
/// method fails with a message instead of panicking, so damaged payloads
/// become located skip warnings or errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated {what}"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes a status (code byte + fields) from `cur`.
fn decode_status(cur: &mut Cursor<'_>) -> Result<FaultStatus, String> {
    let code = cur.u8("status code")?;
    Ok(match code {
        0 => FaultStatus::DetectedConventional(Detection {
            time: cur.u64("detection time")? as usize,
            output: cur.u64("detection output")? as usize,
        }),
        1 => FaultStatus::SkippedConditionC,
        2 => FaultStatus::DetectedByImplications(PairKey {
            u: cur.u64("pair u")? as usize,
            i: cur.u64("pair i")? as usize,
        }),
        3 => FaultStatus::DetectedByForcedAssignments,
        4 => FaultStatus::DetectedByExpansion {
            sequences: cur.u64("sequence count")? as usize,
        },
        5 => FaultStatus::NotDetected {
            undecided: cur.u64("undecided count")? as usize,
            sequences: cur.u64("sequence count")? as usize,
            truncated: cur.u8("truncated flag")? != 0,
            aborted: cur.u8("aborted flag")? != 0,
        },
        6 => FaultStatus::Untestable {
            proof: match cur.u8("untestable proof")? {
                0 => moa_analyze::UntestableProof::Unobservable,
                1 => moa_analyze::UntestableProof::ConstantLine { value: false },
                2 => moa_analyze::UntestableProof::ConstantLine { value: true },
                other => return Err(format!("bad untestable-proof code {other}")),
            },
        },
        7 => FaultStatus::BudgetExceeded {
            stage: budget_stage_from_code(cur.u8("budget stage")?)?,
            work: cur.u64("work count")?,
        },
        8 => {
            let stage_reached = degrade_stage_from_code(cur.u8("degrade stage")?)?;
            let tripped = budget_stage_from_code(cur.u8("tripped stage")?)?;
            let work_spent = cur.u64("work count")?;
            let lower_bound = match cur.u8("bound kind")? {
                0 => PartialBound::Detected {
                    sequences: cur.u64("sequence count")? as usize,
                },
                1 => PartialBound::NotDetected {
                    undecided: cur.u64("undecided count")? as usize,
                    sequences: cur.u64("sequence count")? as usize,
                },
                2 => PartialBound::Unknown,
                other => return Err(format!("bad bound-kind code {other}")),
            };
            FaultStatus::PartialVerdict {
                lower_bound,
                stage_reached,
                tripped,
                work_spent,
            }
        }
        9 => FaultStatus::Faulted {
            message: cur.string("panic message")?,
        },
        10 => FaultStatus::AuditFailed {
            reason: cur.string("audit reason")?,
        },
        other => return Err(format!("bad status code {other}")),
    })
}

/// Decodes one record payload into `(global fault index, result)`.
fn decode_record_payload(payload: &[u8]) -> Result<(u64, FaultResult), String> {
    let mut cur = Cursor::new(payload);
    let index = cur.u64("fault index")?;
    let runs = cur.u64("run count")? as usize;
    let counters = Counters {
        n_det: cur.u64("n_det")?,
        n_conf: cur.u64("n_conf")?,
        n_extra: cur.u64("n_extra")?,
    };
    let status = decode_status(&mut cur)?;
    if !cur.done() {
        return Err("trailing bytes after the status".into());
    }
    Ok((
        index,
        FaultResult {
            status,
            counters,
            runs,
        },
    ))
}

/// Serializes the completed slice of a campaign in format v2.
///
/// `results` has one entry per fault of the *writing* campaign; `None`
/// marks a fault not yet simulated. `header` is the writing campaign's
/// identity: for a shard that is the shard-local fault list
/// (`header.total_faults == shard.len`). The file's header always records
/// the global campaign identity, and record indices are written as global
/// indices (`shard.offset + local`). With `shard == None` the file is the
/// trivial shard 0 of 1.
///
/// Written atomically: temp file, `fsync`, rename.
pub fn write_checkpoint_v2(
    path: &Path,
    header: &CheckpointHeader,
    shard: Option<&ShardInfo>,
    results: &[Option<FaultResult>],
) -> Result<(), Error> {
    let info = match shard {
        Some(info) => *info,
        None => ShardInfo::unsharded(header.total_faults),
    };
    debug_assert_eq!(
        header.total_faults as u64, info.len,
        "the writing campaign's fault list is the shard's slice"
    );

    let mut bytes = Vec::with_capacity(64 + results.len() * 64);
    bytes.extend_from_slice(MAGIC_V2);
    let mut payload = Vec::with_capacity(64);
    put_str(&mut payload, &header.circuit);
    put_u64(&mut payload, info.total_faults);
    put_u64(&mut payload, header.seq_len as u64);
    put_u32(&mut payload, info.shard_id);
    put_u32(&mut payload, info.shard_count);
    put_u64(&mut payload, info.offset);
    put_u64(&mut payload, info.len);
    put_u32(&mut bytes, payload.len() as u32);
    bytes.extend_from_slice(&payload);
    put_u32(&mut bytes, crc32(&payload));

    let mut record_count = 0u64;
    for (local, result) in results.iter().enumerate() {
        let Some(r) = result else { continue };
        push_record(&mut bytes, info.offset + local as u64, r);
        record_count += 1;
    }
    push_trailer(&mut bytes, record_count);

    let write_err = |source: std::io::Error| Error::CheckpointWrite {
        path: path.display().to_string(),
        source,
    };
    let tmp = path.with_extension("tmp");
    #[cfg(feature = "failpoints")]
    {
        let site = if shard.is_some() {
            "fp/shard.write"
        } else {
            "fp/checkpoint.write"
        };
        if let Some(e) = crate::failpoint::io_error(site) {
            return Err(write_err(e));
        }
    }
    let mut file = fs::File::create(&tmp).map_err(write_err)?;
    file.write_all(&bytes).map_err(write_err)?;
    // Durability before visibility: fsync the temp file so the rename below
    // can never publish a checkpoint whose data is still in page cache —
    // otherwise a crash after the rename could leave a *named* but empty or
    // partial file, defeating the atomic-replace guarantee.
    file.sync_all().map_err(write_err)?;
    drop(file);
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/checkpoint.rename") {
        return Err(write_err(e));
    }
    fs::rename(&tmp, path).map_err(write_err)
}

/// Appends one checksummed record frame for fault `global`, encoding the
/// payload in place and patching its length afterwards.
fn push_record(bytes: &mut Vec<u8>, global: u64, r: &FaultResult) {
    bytes.push(TAG_RECORD);
    let len_at = bytes.len();
    put_u32(bytes, 0);
    let start = bytes.len();
    put_u64(bytes, global);
    put_u64(bytes, r.runs as u64);
    put_u64(bytes, r.counters.n_det);
    put_u64(bytes, r.counters.n_conf);
    put_u64(bytes, r.counters.n_extra);
    encode_status(bytes, &r.status);
    let len = (bytes.len() - start) as u32;
    bytes[len_at..start].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&bytes[start..]);
    put_u32(bytes, crc);
}

/// Appends the checksummed end-of-shard trailer promising `count` records.
fn push_trailer(bytes: &mut Vec<u8>, count: u64) {
    bytes.push(TAG_TRAILER);
    let count_bytes = count.to_le_bytes();
    bytes.extend_from_slice(&count_bytes);
    put_u32(bytes, crc32(&count_bytes));
}

/// The strictly-validated contents of one v2 shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFile {
    /// The *global* campaign identity (circuit, total faults across all
    /// shards, sequence length).
    pub header: CheckpointHeader,
    /// This file's place in the partition.
    pub shard: ShardInfo,
    /// `(global fault index, result)` pairs in file order; every index lies
    /// in the shard's range and appears at most once.
    pub records: Vec<(u64, FaultResult)>,
}

/// Parses and validates a v2 header, returning the global identity, the
/// shard info and the byte offset where the body starts.
fn read_v2_header(
    path: &Path,
    bytes: &[u8],
) -> Result<(CheckpointHeader, ShardInfo, usize), Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        record: None,
        message,
    };
    if !bytes.starts_with(MAGIC_V2) {
        return Err(err(
            "not a checkpoint file: missing the `moa-ckpt-v2` magic at byte 0".into(),
        ));
    }
    let mut cur = Cursor::new(bytes);
    cur.pos = MAGIC_V2.len();
    let header_len = cur.u32("header length").map_err(err)? as usize;
    let payload = cur.take(header_len, "header").map_err(err)?;
    let stored = cur.u32("header checksum").map_err(err)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(err(format!(
            "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let mut h = Cursor::new(payload);
    let circuit = h.string("circuit name").map_err(err)?;
    let total_faults = h.u64("total fault count").map_err(err)?;
    let seq_len = h.u64("sequence length").map_err(err)?;
    let shard = ShardInfo {
        shard_id: h.u32("shard id").map_err(err)?,
        shard_count: h.u32("shard count").map_err(err)?,
        offset: h.u64("shard offset").map_err(err)?,
        len: h.u64("shard length").map_err(err)?,
        total_faults,
    };
    if !h.done() {
        return Err(err("trailing bytes in the header payload".into()));
    }
    if shard.shard_count == 0
        || shard.shard_id >= shard.shard_count
        || shard.offset.checked_add(shard.len).is_none_or(|end| end > shard.total_faults)
    {
        return Err(err(format!(
            "inconsistent shard header: shard {} of {}, faults [{}, {}+{}) of {}",
            shard.shard_id,
            shard.shard_count,
            shard.offset,
            shard.offset,
            shard.len,
            shard.total_faults
        )));
    }
    let header = CheckpointHeader {
        circuit,
        total_faults: total_faults as usize,
        seq_len: seq_len as usize,
    };
    Ok((header, shard, cur.pos))
}

/// One step of the shared v2 body walk.
enum V2Item {
    /// A record payload slice: `(record ordinal, byte offset, payload
    /// result)` where the result is the decoded record or the damage
    /// message (bad checksum, malformed payload).
    Record(u64, usize, Result<(u64, FaultResult), String>),
    /// The trailer, carrying its record count, or its damage message.
    Trailer(usize, Result<u64, String>),
    /// The file ends mid-record or mid-trailer at this byte offset (torn
    /// tail).
    Torn(usize),
    /// An unrecognized tag byte at this offset — the record stream cannot
    /// be re-synchronized past it.
    BadTag(usize, u8),
}

/// Walks the v2 body, yielding one [`V2Item`] per frame. Stops after the
/// trailer, a torn tail or a bad tag; the caller decides what is fatal.
fn walk_v2_body(bytes: &[u8], body_start: usize, mut visit: impl FnMut(V2Item) -> bool) {
    let mut cur = Cursor::new(bytes);
    cur.pos = body_start;
    let mut ordinal = 0u64;
    loop {
        let at = cur.pos;
        if cur.done() {
            return;
        }
        let Ok(tag) = cur.u8("tag") else {
            let _ = visit(V2Item::Torn(at));
            return;
        };
        match tag {
            TAG_RECORD => {
                ordinal += 1;
                let frame = cur
                    .u32("record length")
                    .and_then(|len| {
                        let payload = cur.take(len as usize, "record payload")?;
                        let stored = cur.u32("record checksum")?;
                        Ok((payload, stored))
                    });
                let Ok((payload, stored)) = frame else {
                    let _ = visit(V2Item::Torn(at));
                    return;
                };
                let computed = crc32(payload);
                let decoded = if stored == computed {
                    decode_record_payload(payload)
                } else {
                    Err(format!(
                        "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                    ))
                };
                if !visit(V2Item::Record(ordinal, at, decoded)) {
                    return;
                }
            }
            TAG_TRAILER => {
                let frame = cur.u64("trailer count").and_then(|count| {
                    let stored = cur.u32("trailer checksum")?;
                    Ok((count, stored))
                });
                let item = match frame {
                    Err(_) => V2Item::Trailer(at, Err("torn end-of-shard trailer".into())),
                    Ok((count, stored)) => {
                        let computed = crc32(&count.to_le_bytes());
                        if stored != computed {
                            V2Item::Trailer(
                                at,
                                Err(format!(
                                    "trailer checksum mismatch \
                                     (stored {stored:#010x}, computed {computed:#010x})"
                                )),
                            )
                        } else if !cur.done() {
                            V2Item::Trailer(
                                at,
                                Err(format!(
                                    "{} trailing byte(s) after the end-of-shard trailer",
                                    cur.bytes.len() - cur.pos
                                )),
                            )
                        } else {
                            V2Item::Trailer(at, Ok(count))
                        }
                    }
                };
                let _ = visit(item);
                return;
            }
            other => {
                let _ = visit(V2Item::BadTag(at, other));
                return;
            }
        }
    }
}

/// The lenient resume reader (see the module docs for the damage policy).
/// `expected` is the resuming campaign's identity — shard-local when
/// `shard` is given, global otherwise.
fn read_checkpoint_impl(
    path: &Path,
    expected: &CheckpointHeader,
    shard: Option<&ShardInfo>,
) -> Result<CheckpointLoad, Error> {
    let err = |message: String| Error::Checkpoint {
        path: path.display().to_string(),
        record: None,
        message,
    };
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/checkpoint.resume") {
        return Err(err(format!("cannot read checkpoint: {e}")));
    }
    let bytes = fs::read(path).map_err(|e| err(format!("cannot read checkpoint: {e}")))?;
    let (header, info, body_start) = read_v2_header(path, &bytes)?;
    match shard {
        None => {
            if info.shard_count != 1 {
                return Err(err(format!(
                    "checkpoint is shard {} of {}; expected an unsharded checkpoint",
                    info.shard_id, info.shard_count
                )));
            }
            if header != *expected {
                return Err(err(mismatch_message(&header, expected)));
            }
        }
        Some(want) => {
            let local = CheckpointHeader {
                circuit: header.circuit.clone(),
                total_faults: info.len as usize,
                seq_len: header.seq_len,
            };
            if local != *expected || info != *want {
                return Err(err(format!(
                    "shard checkpoint belongs to a different campaign: file has \
                     circuit `{}`, shard {} of {} covering [{}, {}) of {} faults, \
                     sequence length {}; expected circuit `{}`, shard {} of {} \
                     covering [{}, {}) of {} faults, sequence length {}",
                    header.circuit,
                    info.shard_id,
                    info.shard_count,
                    info.offset,
                    info.offset + info.len,
                    info.total_faults,
                    header.seq_len,
                    expected.circuit,
                    want.shard_id,
                    want.shard_count,
                    want.offset,
                    want.offset + want.len,
                    want.total_faults,
                    expected.seq_len,
                )));
            }
        }
    }

    let mut slots: Vec<Option<FaultResult>> = vec![None; expected.total_faults];
    let mut skipped: Vec<CheckpointSkip> = Vec::new();
    let mut saw_trailer = false;
    let mut stored_count = 0u64;
    let mut frames = 0u64;
    // Where the record stream stopped short of a trailer.
    let mut stream_end = bytes.len();
    walk_v2_body(&bytes, body_start, |item| match item {
        V2Item::Record(ordinal, at, decoded) => {
            frames = ordinal;
            match decoded {
                Ok((global, result)) => {
                    let local = global
                        .checked_sub(info.offset)
                        .filter(|&l| l < info.len)
                        .map(|l| l as usize);
                    match local {
                        None => skipped.push(CheckpointSkip {
                            record: ordinal as usize,
                            message: format!(
                                "record {ordinal} at byte {at}: fault index {global} outside \
                                 the shard range [{}, {})",
                                info.offset,
                                info.offset + info.len
                            ),
                        }),
                        Some(local) if slots[local].is_some() => skipped.push(CheckpointSkip {
                            record: ordinal as usize,
                            message: format!(
                                "record {ordinal} at byte {at}: duplicate record for fault \
                                 {global} (keeping the first)"
                            ),
                        }),
                        Some(local) => slots[local] = Some(result),
                    }
                }
                Err(message) => skipped.push(CheckpointSkip {
                    record: ordinal as usize,
                    message: format!("record {ordinal} at byte {at}: {message}"),
                }),
            }
            true
        }
        V2Item::Trailer(at, outcome) => {
            match outcome {
                Ok(count) => {
                    saw_trailer = true;
                    stored_count = count;
                }
                Err(message) => skipped.push(CheckpointSkip {
                    record: 0,
                    message: format!("byte {at}: {message}"),
                }),
            }
            false
        }
        // A torn tail is dropped; the missing-trailer warning below
        // records where the file was cut.
        V2Item::Torn(at) => {
            stream_end = at;
            false
        }
        V2Item::BadTag(at, tag) => {
            stream_end = at;
            skipped.push(CheckpointSkip {
                record: 0,
                message: format!(
                    "byte {at}: unrecognized tag {tag:#04x}; dropping the rest of the \
                     record stream"
                ),
            });
            false
        }
    });
    if !saw_trailer {
        skipped.push(CheckpointSkip {
            record: 0,
            message: format!(
                "byte {stream_end}: missing end-of-shard trailer (torn file?); kept the \
                 records that checksummed clean"
            ),
        });
    } else if stored_count != frames {
        skipped.push(CheckpointSkip {
            record: 0,
            message: format!(
                "end-of-shard trailer promises {stored_count} record(s), found {frames}"
            ),
        });
    }
    Ok(CheckpointLoad { slots, skipped })
}

/// Reads a v2 shard file **strictly** for an integrity-verified merge: any
/// damage — bad checksum anywhere, malformed payload, torn record, missing
/// or mismatching trailer, duplicate or out-of-range fault index — is a
/// located hard [`Error::Checkpoint`]. `record` in the error is the 1-based
/// record ordinal where applicable.
pub fn read_shard(path: &Path) -> Result<ShardFile, Error> {
    let err = |record: Option<usize>, message: String| Error::Checkpoint {
        path: path.display().to_string(),
        record,
        message,
    };
    #[cfg(feature = "failpoints")]
    if let Some(e) = crate::failpoint::io_error("fp/shard.read") {
        return Err(err(None, format!("cannot read shard file: {e}")));
    }
    let bytes = fs::read(path).map_err(|e| err(None, format!("cannot read shard file: {e}")))?;
    let (header, shard, body_start) = read_v2_header(path, &bytes)?;
    let mut records: Vec<(u64, FaultResult)> = Vec::new();
    // Sized by the records actually decoded, never by the header's declared
    // shard length: a crafted header may declare any count.
    let mut seen: HashSet<u64> = HashSet::new();
    let mut fatal: Option<Error> = None;
    let mut trailer: Option<u64> = None;
    walk_v2_body(&bytes, body_start, |item| match item {
        V2Item::Record(ordinal, at, decoded) => match decoded {
            Ok((global, result)) => {
                let local = global.checked_sub(shard.offset).filter(|&l| l < shard.len);
                match local {
                    None => {
                        fatal = Some(err(
                            Some(ordinal as usize),
                            format!(
                                "record {ordinal} at byte {at}: fault index {global} outside \
                                 the shard range [{}, {})",
                                shard.offset,
                                shard.offset + shard.len
                            ),
                        ));
                        false
                    }
                    Some(local) if !seen.insert(local) => {
                        fatal = Some(err(
                            Some(ordinal as usize),
                            format!(
                                "record {ordinal} at byte {at}: duplicate record for \
                                 fault {global}"
                            ),
                        ));
                        false
                    }
                    Some(_) => {
                        records.push((global, result));
                        true
                    }
                }
            }
            Err(message) => {
                fatal = Some(err(
                    Some(ordinal as usize),
                    format!("record {ordinal} at byte {at}: {message}"),
                ));
                false
            }
        },
        V2Item::Trailer(at, outcome) => {
            match outcome {
                Ok(count) => trailer = Some(count),
                Err(message) => fatal = Some(err(None, format!("byte {at}: {message}"))),
            }
            false
        }
        V2Item::Torn(at) => {
            fatal = Some(err(
                None,
                format!("torn shard file: cut off mid-record at byte {at}"),
            ));
            false
        }
        V2Item::BadTag(at, tag) => {
            fatal = Some(err(
                None,
                format!("unrecognized tag {tag:#04x} at byte {at}"),
            ));
            false
        }
    });
    if let Some(e) = fatal {
        return Err(e);
    }
    match trailer {
        None => {
            return Err(err(
                None,
                "torn shard file: missing end-of-shard trailer".into(),
            ))
        }
        Some(count) if count != records.len() as u64 => {
            return Err(err(
                None,
                format!(
                    "end-of-shard trailer promises {count} record(s), found {}",
                    records.len()
                ),
            ))
        }
        Some(_) => {}
    }
    Ok(ShardFile {
        header,
        shard,
        records,
    })
}

/// The "different campaign" message, shared by the resume reader and the
/// shard merge.
pub(crate) fn mismatch_message(found: &CheckpointHeader, expected: &CheckpointHeader) -> String {
    format!(
        "checkpoint belongs to a different campaign: \
         file has circuit `{}`, {} faults, sequence length {}; \
         expected circuit `{}`, {} faults, sequence length {}",
        found.circuit,
        found.total_faults,
        found.seq_len,
        expected.circuit,
        expected.total_faults,
        expected.seq_len
    )
}

/// A crafted 68-byte shard file: the v2 magic, then a header with a
/// correct checksum declaring circuit `s208`, 2^40 faults, sequence length
/// 8, and shard 0 of 1 covering all 2^40 faults — and no records. A reader
/// that sizes memory by the declared shard length attempts a 2^40-byte
/// allocation and aborts the process, beyond the reach of panic isolation.
#[cfg(test)]
pub(crate) const OVERSIZED_SHARD_HEADER: &[u8] = b"moa-ckpt-v2\n\
    \x30\x00\x00\x00\
    \x04\x00\x00\x00s208\
    \x00\x00\x00\x00\x00\x01\x00\x00\
    \x08\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x01\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x01\x00\x00\
    \xbf\x9c\xb4\x6e";

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            circuit: "s27".into(),
            total_faults: 5,
            seq_len: 32,
        }
    }

    fn sample_results() -> Vec<Option<FaultResult>> {
        let r = |status: FaultStatus| {
            Some(FaultResult {
                status,
                counters: Counters {
                    n_det: 1,
                    n_conf: 2,
                    n_extra: 3,
                },
                runs: 7,
            })
        };
        vec![
            r(FaultStatus::DetectedConventional(Detection { time: 4, output: 1 })),
            None,
            r(FaultStatus::NotDetected {
                undecided: 2,
                sequences: 8,
                truncated: true,
                aborted: false,
            }),
            r(FaultStatus::BudgetExceeded {
                stage: BudgetStage::Resimulation,
                work: 12345,
            }),
            r(FaultStatus::Faulted {
                message: "boom\nwith \\ newline".into(),
            }),
        ]
    }

    #[test]
    fn round_trips_every_status() {
        let path = v2_dir("roundtrip-statuses").join("cp.ckpt");
        let results = sample_results();
        write_checkpoint_v2(&path, &header(), None, &results).unwrap();
        let loaded = read_checkpoint(&path, &header()).unwrap();
        assert_eq!(loaded.slots, results);
        assert!(loaded.skipped.is_empty());

        // Statuses not in sample_results round-trip too.
        let extra = vec![
            Some(FaultResult {
                status: FaultStatus::DetectedByImplications(PairKey { u: 3, i: 1 }),
                counters: Counters::new(),
                runs: 2,
            }),
            Some(FaultResult {
                status: FaultStatus::SkippedConditionC,
                counters: Counters::new(),
                runs: 0,
            }),
            Some(FaultResult {
                status: FaultStatus::DetectedByForcedAssignments,
                counters: Counters::new(),
                runs: 1,
            }),
            Some(FaultResult {
                status: FaultStatus::DetectedByExpansion { sequences: 64 },
                counters: Counters::new(),
                runs: 9,
            }),
            Some(FaultResult {
                status: FaultStatus::AuditFailed {
                    reason: "cube (1,0)=1 state 3: output 0 at time 2\nnot covered".into(),
                },
                counters: Counters::new(),
                runs: 4,
            }),
        ];
        write_checkpoint_v2(&path, &header(), None, &extra).unwrap();
        assert_eq!(read_checkpoint(&path, &header()).unwrap().slots, extra);

        // Every shape of the degradation ladder's partial verdict.
        let partial = vec![
            Some(FaultResult {
                status: FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::Detected { sequences: 16 },
                    stage_reached: DegradeStage::ExpansionOnly,
                    tripped: BudgetStage::Collection,
                    work_spent: 9001,
                },
                counters: Counters::new(),
                runs: 3,
            }),
            Some(FaultResult {
                status: FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::NotDetected {
                        undecided: 4,
                        sequences: 32,
                    },
                    stage_reached: DegradeStage::ExpansionOnly,
                    tripped: BudgetStage::Resimulation,
                    work_spent: 77,
                },
                counters: Counters::new(),
                runs: 0,
            }),
            Some(FaultResult {
                status: FaultStatus::PartialVerdict {
                    lower_bound: PartialBound::Unknown,
                    stage_reached: DegradeStage::Conventional,
                    tripped: BudgetStage::Expansion,
                    work_spent: 123,
                },
                counters: Counters::new(),
                runs: 0,
            }),
            None,
            None,
        ];
        write_checkpoint_v2(&path, &header(), None, &partial).unwrap();
        assert_eq!(read_checkpoint(&path, &header()).unwrap().slots, partial);

        let untestable = vec![
            Some(FaultResult {
                status: FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::Unobservable,
                },
                counters: Counters::new(),
                runs: 0,
            }),
            Some(FaultResult {
                status: FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::ConstantLine { value: false },
                },
                counters: Counters::new(),
                runs: 0,
            }),
            Some(FaultResult {
                status: FaultStatus::Untestable {
                    proof: moa_analyze::UntestableProof::ConstantLine { value: true },
                },
                counters: Counters::new(),
                runs: 0,
            }),
            None,
            None,
        ];
        write_checkpoint_v2(&path, &header(), None, &untestable).unwrap();
        assert_eq!(read_checkpoint(&path, &header()).unwrap().slots, untestable);
    }

    #[test]
    fn rejects_mismatched_campaign() {
        let path = v2_dir("mismatch").join("cp.ckpt");
        write_checkpoint_v2(&path, &header(), None, &sample_results()).unwrap();
        let other = CheckpointHeader {
            circuit: "s208".into(),
            ..header()
        };
        let e = read_checkpoint(&path, &other).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");

        // A shard file is not an unsharded checkpoint, whatever its identity.
        let (local, info) = shard_fixture();
        write_checkpoint_v2(&path, &local, Some(&info), &sample_results()).unwrap();
        let e = read_checkpoint(&path, &header()).unwrap_err();
        assert!(e.to_string().contains("expected an unsharded checkpoint"), "{e}");
    }

    #[test]
    fn header_damage_is_still_a_hard_error() {
        let dir = v2_dir("header-damage");

        let missing = dir.join("does-not-exist.ckpt");
        assert!(read_checkpoint(&missing, &header()).is_err());

        let garbage = dir.join("garbage.ckpt");
        std::fs::write(&garbage, "hello world\n").unwrap();
        let e = read_checkpoint(&garbage, &header()).unwrap_err();
        assert!(e.to_string().contains("not a checkpoint file"), "{e}");
        assert!(e.to_string().contains("byte 0"), "the error is located: {e}");
        assert!(e.to_string().contains("garbage.ckpt"), "the error names the file: {e}");

        // The magic alone: the header is cut off.
        std::fs::write(&garbage, MAGIC_V2).unwrap();
        let e = read_checkpoint(&garbage, &header()).unwrap_err();
        assert!(e.to_string().contains("truncated header length"), "{e}");

        // A flipped bit inside the circuit name (past the magic and the
        // header length and name length words) fails the header checksum.
        let damaged = dir.join("bad-header.ckpt");
        write_checkpoint_v2(&damaged, &header(), None, &sample_results()).unwrap();
        let mut bytes = std::fs::read(&damaged).unwrap();
        bytes[MAGIC_V2.len() + 8] ^= 0x01;
        std::fs::write(&damaged, &bytes).unwrap();
        let e = read_checkpoint(&damaged, &header()).unwrap_err();
        assert!(e.to_string().contains("header checksum mismatch"), "{e}");
        assert!(read_shard(&damaged).is_err(), "the strict reader agrees");
    }

    #[test]
    fn damaged_interior_records_are_skipped_and_later_records_still_load() {
        let path = v2_dir("skip").join("cp.ckpt");
        write_checkpoint_v2(&path, &header(), None, &sample_results()).unwrap();
        // Re-open the record stream (drop the 13-byte trailer) and append a
        // duplicate of fault 0, a record for fault 99 of 5, a record for the
        // unsimulated fault 1 whose payload fails its checksum, and finally
        // an intact record for fault 1.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 13);
        let skip_c = FaultResult {
            status: FaultStatus::SkippedConditionC,
            counters: Counters::new(),
            runs: 0,
        };
        push_record(&mut bytes, 0, &skip_c);
        push_record(&mut bytes, 99, &skip_c);
        let flipped_at = bytes.len();
        push_record(
            &mut bytes,
            1,
            &FaultResult {
                runs: 3,
                ..skip_c.clone()
            },
        );
        // Tag (1) + length word (4) + global index (8) lands on `runs`.
        bytes[flipped_at + 13] ^= 0x01;
        push_record(&mut bytes, 1, &skip_c);
        push_trailer(&mut bytes, 8);
        std::fs::write(&path, &bytes).unwrap();

        let loaded = read_checkpoint(&path, &header()).unwrap();
        let mut expected = sample_results();
        expected[1] = Some(skip_c);
        assert_eq!(loaded.slots, expected, "first record wins; later records still load");
        assert_eq!(loaded.skipped.len(), 3, "{:?}", loaded.skipped);
        assert_eq!(loaded.skipped[0].record, 5);
        assert!(loaded.skipped[0].message.contains("record 5 at byte"));
        assert!(loaded.skipped[0].message.contains("duplicate record for fault 0"));
        assert_eq!(loaded.skipped[1].record, 6);
        assert!(loaded.skipped[1].message.contains("fault index 99 outside"));
        assert_eq!(loaded.skipped[2].record, 7);
        let located = format!("record 7 at byte {flipped_at}: checksum mismatch");
        assert!(loaded.skipped[2].message.contains(&located), "{:?}", loaded.skipped);

        // The strict merge reader refuses the same file at the first damage.
        let e = read_shard(&path).unwrap_err();
        assert!(e.to_string().contains("duplicate record for fault 0"), "{e}");
    }

    /// A header declaring 2^40 faults allocates nothing by that count: the
    /// strict reader reports the missing records as a located error.
    #[test]
    fn oversized_shard_header_is_a_located_error() {
        assert_eq!(OVERSIZED_SHARD_HEADER.len(), 68);
        let dir = std::env::temp_dir().join(format!("moa-ckpt-oversized-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.ckpt");
        fs::write(&path, OVERSIZED_SHARD_HEADER).unwrap();
        let (header, shard, _) = read_v2_header(&path, OVERSIZED_SHARD_HEADER).unwrap();
        assert_eq!((header.circuit.as_str(), header.seq_len), ("s208", 8));
        assert_eq!((shard.shard_count, shard.len), (1, 1 << 40));
        match read_shard(&path) {
            Err(Error::Checkpoint {
                path: at, message, ..
            }) => {
                assert_eq!(at, path.display().to_string());
                assert!(
                    message.contains("missing end-of-shard trailer"),
                    "{message}"
                );
            }
            other => panic!("expected a located checkpoint error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Shard 1 of 3 of a 12-fault campaign, covering faults [4, 9). The
    /// local header matches `sample_results()` (5 slots).
    fn shard_fixture() -> (CheckpointHeader, ShardInfo) {
        let info = ShardInfo {
            shard_id: 1,
            shard_count: 3,
            offset: 4,
            len: 5,
            total_faults: 12,
        };
        (header(), info)
    }

    fn v2_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("moa-checkpoint-v2-test-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn v2_round_trips_unsharded_through_both_readers() {
        let path = v2_dir("roundtrip").join("cp.ckpt");
        let results = sample_results();
        write_checkpoint_v2(&path, &header(), None, &results).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");

        // The lenient resume reader gets every slot back.
        let loaded = read_checkpoint(&path, &header()).unwrap();
        assert_eq!(loaded.slots, results);
        assert!(loaded.skipped.is_empty());

        // The strict reader sees the trivial shard 0 of 1.
        let file = read_shard(&path).unwrap();
        assert_eq!(file.header, header());
        assert_eq!(file.shard, ShardInfo::unsharded(5));
        let indices: Vec<u64> = file.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 2, 3, 4], "None slots write no record");
    }

    #[test]
    fn v2_shard_records_carry_global_indices() {
        let path = v2_dir("sharded").join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        assert_eq!(loaded.slots, results, "slots come back shard-local");
        assert!(loaded.skipped.is_empty());

        let file = read_shard(&path).unwrap();
        assert_eq!(file.header.total_faults, 12, "header keeps the global identity");
        assert_eq!(file.shard, info);
        let indices: Vec<u64> = file.records.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![4, 6, 7, 8], "offset + local slot");

        // Pointing the resume at the wrong slice of the partition is fatal.
        let other = ShardInfo {
            shard_id: 0,
            offset: 0,
            len: 4,
            ..info
        };
        let wrong = CheckpointHeader {
            total_faults: 4,
            ..local.clone()
        };
        let e = read_checkpoint_sharded(&path, &wrong, &other).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");
    }

    #[test]
    fn v2_single_bit_flip_is_caught_by_the_record_checksum() {
        let path = v2_dir("bitflip").join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Walk past the magic, the length-prefixed checksummed header and
        // the first record (tag + length + payload + crc) to the second
        // record, then flip a bit in its payload: records on both sides of
        // the damage are intact.
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let first = MAGIC_V2.len() + 4 + u32_at(MAGIC_V2.len()) + 4;
        let second = first + 1 + 4 + u32_at(first + 1) + 4;
        bytes[second + 5 + 8] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        // Lenient resume: the damaged record is skipped with a located
        // warning and its fault re-simulates; everything else loads.
        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        let mut expected = results;
        expected[2] = None;
        assert_eq!(loaded.slots, expected, "the records after the damage still load");
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);
        assert!(loaded.skipped[0].message.contains("checksum mismatch"));
        assert_eq!(loaded.skipped[0].record, 2, "located at the record ordinal");

        // Strict merge read: the same damage is a located hard error.
        let e = read_shard(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("checksum mismatch"), "{text}");
        assert!(text.contains("record 2"), "{text}");
        assert!(text.contains("shard-1.ckpt"), "the error names the file: {text}");
    }

    #[test]
    fn v2_torn_trailer_warns_on_resume_and_fails_the_merge() {
        let path = v2_dir("torn-trailer").join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the trailer: all records are intact, the end-of-shard
        // marker is not.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        assert_eq!(loaded.slots, results, "every record still loads");
        assert!(
            loaded.skipped.iter().any(|s| s.message.contains("trailer")),
            "{:?}",
            loaded.skipped
        );

        let e = read_shard(&path).unwrap_err();
        assert!(e.to_string().contains("trailer"), "{e}");
    }

    #[test]
    fn v2_torn_record_drops_the_tail_on_resume_and_fails_the_merge() {
        let path = v2_dir("torn-record").join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        let results = sample_results();
        write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut off mid-way through the last record (before the trailer).
        std::fs::write(&path, &bytes[..bytes.len() - 13 - 6]).unwrap();

        let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
        let mut expected = results;
        expected[4] = None;
        assert_eq!(loaded.slots, expected, "the torn record re-simulates");
        assert!(
            loaded
                .skipped
                .iter()
                .any(|s| s.message.contains("missing end-of-shard trailer")),
            "{:?}",
            loaded.skipped
        );

        let e = read_shard(&path).unwrap_err();
        assert!(e.to_string().contains("torn shard file"), "{e}");
    }

    #[test]
    fn v2_trailer_count_mismatch_is_a_lie_the_merge_rejects() {
        let path = v2_dir("lying-trailer").join("shard-1.ckpt");
        let (local, info) = shard_fixture();
        write_checkpoint_v2(&path, &local, Some(&info), &sample_results()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Rewrite the trailer to promise one extra record, with a *valid*
        // checksum — only the count cross-check can catch this.
        let trailer_at = bytes.len() - 13;
        let count = 5u64.to_le_bytes();
        bytes[trailer_at + 1..trailer_at + 9].copy_from_slice(&count);
        bytes[trailer_at + 9..].copy_from_slice(&crc32(&count).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let e = read_shard(&path).unwrap_err();
        assert!(
            e.to_string().contains("promises 5 record(s), found 4"),
            "{e}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn v2_round_trips_arbitrary_results(
            results in proptest::collection::vec(arb_slot(), 1..20),
            offset in 0u64..50,
        ) {
            let total = offset + results.len() as u64 + 3;
            let info = ShardInfo {
                shard_id: 0,
                shard_count: 2,
                offset,
                len: results.len() as u64,
                total_faults: total,
            };
            let local = CheckpointHeader {
                circuit: "prop".into(),
                total_faults: results.len(),
                seq_len: 17,
            };
            let path = v2_dir("prop").join(format!(
                "t{:?}.ckpt",
                std::thread::current().id()
            ));
            write_checkpoint_v2(&path, &local, Some(&info), &results).unwrap();
            let loaded = read_checkpoint_sharded(&path, &local, &info).unwrap();
            proptest::prop_assert_eq!(&loaded.slots, &results);
            proptest::prop_assert!(loaded.skipped.is_empty());
            let file = read_shard(&path).unwrap();
            let live = results.iter().filter(|r| r.is_some()).count();
            proptest::prop_assert_eq!(file.records.len(), live);
            for (global, _) in &file.records {
                proptest::prop_assert!(
                    *global >= offset && *global < offset + results.len() as u64
                );
            }
        }
    }

    /// `Some(result)` three times as often as the `None` (not yet
    /// simulated) slot.
    fn arb_slot() -> impl proptest::prelude::Strategy<Value = Option<FaultResult>> {
        use proptest::prelude::*;
        prop_oneof![
            Just(None),
            arb_fault_result().prop_map(Some),
            arb_fault_result().prop_map(Some),
            arb_fault_result().prop_map(Some),
        ]
    }

    /// A strategy over every [`FaultStatus`] shape, with messages that
    /// exercise the string escaping (newlines, backslashes, spaces).
    fn arb_fault_result() -> impl proptest::prelude::Strategy<Value = FaultResult> {
        use proptest::prelude::*;
        let message = "([a-z]|\\\\|\n| ){0,12}";
        let status = prop_oneof![
            (any::<u16>(), any::<u8>()).prop_map(|(time, output)| {
                FaultStatus::DetectedConventional(Detection {
                    time: time as usize,
                    output: output as usize,
                })
            }),
            Just(FaultStatus::SkippedConditionC),
            (any::<u16>(), any::<u16>()).prop_map(|(u, i)| {
                FaultStatus::DetectedByImplications(PairKey {
                    u: u as usize,
                    i: i as usize,
                })
            }),
            Just(FaultStatus::DetectedByForcedAssignments),
            (1u16..65).prop_map(|sequences| FaultStatus::DetectedByExpansion {
                sequences: sequences as usize,
            }),
            (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
                |(undecided, sequences, truncated, aborted)| FaultStatus::NotDetected {
                    undecided: undecided as usize,
                    sequences: sequences as usize,
                    truncated,
                    aborted,
                }
            ),
            prop_oneof![
                Just(moa_analyze::UntestableProof::Unobservable),
                any::<bool>().prop_map(|value| {
                    moa_analyze::UntestableProof::ConstantLine { value }
                }),
            ]
            .prop_map(|proof| FaultStatus::Untestable { proof }),
            (arb_budget_stage(), any::<u32>()).prop_map(|(stage, work)| {
                FaultStatus::BudgetExceeded {
                    stage,
                    work: u64::from(work),
                }
            }),
            (arb_partial_bound(), arb_budget_stage(), any::<bool>(), any::<u32>()).prop_map(
                |(lower_bound, tripped, expansion_only, work_spent)| {
                    FaultStatus::PartialVerdict {
                        lower_bound,
                        stage_reached: if expansion_only {
                            DegradeStage::ExpansionOnly
                        } else {
                            DegradeStage::Conventional
                        },
                        tripped,
                        work_spent: u64::from(work_spent),
                    }
                }
            ),
            message.prop_map(|message| FaultStatus::Faulted { message }),
            message.prop_map(|reason| FaultStatus::AuditFailed { reason }),
        ];
        (status, any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()).prop_map(
            |(status, runs, n_det, n_conf, n_extra)| FaultResult {
                status,
                counters: Counters {
                    n_det: u64::from(n_det),
                    n_conf: u64::from(n_conf),
                    n_extra: u64::from(n_extra),
                },
                runs: runs as usize,
            },
        )
    }

    fn arb_budget_stage() -> impl proptest::prelude::Strategy<Value = BudgetStage> {
        use proptest::prelude::*;
        prop_oneof![
            Just(BudgetStage::Collection),
            Just(BudgetStage::Expansion),
            Just(BudgetStage::Resimulation),
        ]
    }

    fn arb_partial_bound() -> impl proptest::prelude::Strategy<Value = PartialBound> {
        use proptest::prelude::*;
        prop_oneof![
            (1u8..65).prop_map(|sequences| PartialBound::Detected {
                sequences: sequences as usize,
            }),
            (any::<u8>(), any::<u8>()).prop_map(|(undecided, sequences)| {
                PartialBound::NotDetected {
                    undecided: undecided as usize,
                    sequences: sequences as usize,
                }
            }),
            Just(PartialBound::Unknown),
        ]
    }
}
