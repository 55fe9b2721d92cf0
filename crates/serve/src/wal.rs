//! The append-only answer log (WAL) behind session durability.
//!
//! Record framing: `[len: u32 LE][fnv1a32(payload): u32 LE][payload]`,
//! where the payload is one compact JSON object — either
//! `{"rec":"create","session":N,"cfg":{…}}`,
//! `{"rec":"answer","session":N,"answer":{…}}`,
//! `{"rec":"snapshot",…}` or the `{"rec":"noop"}` written by the
//! degraded-mode recovery probe. Records are appended and flushed
//! *before* the mutating request is acknowledged, so every acknowledged
//! answer survives a process kill.
//!
//! # Salvage
//!
//! Replay does not stop at the first bad frame. A torn **tail** (a final
//! frame whose header promises more bytes than the file holds — exactly
//! what an interrupted append leaves) is silently dropped, as before.
//! Any other corruption — a mid-file checksum mismatch, unparsable
//! payload, or garbage between frames — is **salvaged around**: the
//! decoder scans forward byte-by-byte to the next frame that checksums
//! and parses, quarantines the skipped bytes to `<wal>.quarantine`, and
//! keeps decoding. No frame preceding the first corruption is ever
//! dropped, and salvage never panics. After a dirty decode the log is
//! atomically rewritten clean (tmp + fsync + rename), so the append
//! handle always lands on a valid end-of-log — without the repair, a
//! frame appended after garbage would be silently unreachable on the
//! *next* replay.
//!
//! Storage faults are injectable at four points (`serve.wal.open`,
//! `serve.wal.append`, `serve.wal.fsync`, `serve.wal.compact`); the
//! fsync fault lands *half a frame* before failing, so the torn-write
//! salvage path is exercised by fault plans, not just by real crashes.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use muse_obs::{faultpoints, Json};

/// FNV-1a, 32-bit: tiny, deterministic, good enough to reject torn tails.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for b in bytes {
        hash ^= u32::from(*b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// What the salvage scan found (and repaired) when opening a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Frames recovered *after* the first corrupt region by scanning
    /// forward to the next valid frame boundary.
    pub salvaged_frames: u64,
    /// Corrupt bytes skipped mid-file and appended to `<wal>.quarantine`.
    /// Torn-tail bytes (an interrupted final append) are dropped silently
    /// and not counted here.
    pub quarantined_bytes: u64,
}

impl SalvageReport {
    /// Did the scan find anything to salvage or quarantine?
    pub fn is_clean(&self) -> bool {
        *self == SalvageReport::default()
    }
}

/// An open write-ahead log.
pub struct Wal {
    file: Mutex<File>,
    path: PathBuf,
    len: AtomicU64,
}

fn encode_frame(rec: &Json) -> Vec<u8> {
    let payload = rec.render().into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

impl Wal {
    /// Open `path` (creating it if absent), salvage-decode every record
    /// that survives (see the module docs), quarantine skipped bytes to
    /// `<path>.quarantine`, and atomically repair the log when the decode
    /// was dirty. A stray `<path>.tmp` left by a compaction interrupted
    /// before its rename is dead weight, never the live log, and is
    /// removed. The `serve.wal.open` fault point fails the open.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<Json>, SalvageReport)> {
        if muse_fault::point(faultpoints::SERVE_WAL_OPEN).is_some() {
            return Err(io::Error::other("injected serve.wal.open fault"));
        }
        let _ = std::fs::remove_file(tmp_path(path));
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let salvage = salvage_decode(&data);
        let report = SalvageReport {
            salvaged_frames: salvage.salvaged_frames,
            quarantined_bytes: salvage
                .quarantined
                .iter()
                .map(|(a, b)| (b - a) as u64)
                .sum(),
        };
        if !salvage.quarantined.is_empty() {
            // Best-effort post-mortem record of the skipped bytes; a
            // failure to preserve garbage must not fail recovery.
            if let Ok(mut q) = OpenOptions::new()
                .create(true)
                .append(true)
                .open(quarantine_path(path))
            {
                for (a, b) in &salvage.quarantined {
                    if let Some(bytes) = data.get(*a..*b) {
                        let _ = q.write_all(bytes);
                    }
                }
                let _ = q.flush();
            }
        }
        let (file, len) = if salvage.dirty {
            let mut clean = Vec::new();
            for rec in &salvage.records {
                clean.extend_from_slice(&encode_frame(rec));
            }
            match atomic_rewrite(path, &clean) {
                Ok(handle) => (handle, clean.len() as u64),
                Err(_) => {
                    // Repair is an optimization, not a correctness
                    // requirement: appending at the dirty end-of-log is
                    // safe now that replay salvages around garbage.
                    let file = OpenOptions::new().create(true).append(true).open(path)?;
                    let len = file.metadata()?.len();
                    (file, len)
                }
            }
        } else {
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            let len = file.metadata()?.len();
            (file, len)
        };
        Ok((
            Wal {
                file: Mutex::new(file),
                path: path.to_owned(),
                len: AtomicU64::new(len),
            },
            salvage.records,
            report,
        ))
    }

    /// Bytes currently in the log file (frames appended or kept by the
    /// last compaction). Drives the compaction trigger.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the log file holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one record and flush it to the OS; returns the bytes
    /// written. The `serve.wal.append` fault point fails the append before
    /// any byte is written; the `serve.wal.fsync` point lands *half a
    /// frame* and then fails, modeling a torn write that the next replay
    /// must salvage around.
    pub fn append(&self, rec: &Json) -> io::Result<u64> {
        if muse_fault::point(faultpoints::SERVE_WAL_APPEND).is_some() {
            return Err(io::Error::other("injected serve.wal.append fault"));
        }
        let frame = encode_frame(rec);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if muse_fault::point(faultpoints::SERVE_WAL_FSYNC).is_some() {
            let half = frame.get(..frame.len() / 2).unwrap_or(&frame);
            let _ = file.write_all(half);
            let _ = file.flush();
            self.len.fetch_add(half.len() as u64, Ordering::Relaxed);
            return Err(io::Error::other("injected serve.wal.fsync fault"));
        }
        file.write_all(&frame)?;
        file.flush()?;
        self.len.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(frame.len() as u64)
    }

    /// Rewrite the log as `rewrite(current records)`, atomically.
    ///
    /// The file mutex is held for the whole operation, so no append can
    /// interleave. The new log is written to `<path>.tmp`, synced, and an
    /// append handle to it is opened *before* the rename — the handle
    /// tracks the inode, not the name, so once `rename(tmp, path)` lands
    /// there is no window in which an append could go to a file about to
    /// be discarded. A crash on either side of the rename leaves a valid
    /// log: the old one (plus an ignorable `.tmp`) or the new one. The
    /// `serve.wal.compact` fault point fails the compaction up front,
    /// leaving the live log untouched.
    ///
    /// Returns the new length in bytes.
    pub fn compact(&self, rewrite: impl FnOnce(Vec<Json>) -> Vec<Json>) -> io::Result<u64> {
        if muse_fault::point(faultpoints::SERVE_WAL_COMPACT).is_some() {
            return Err(io::Error::other("injected serve.wal.compact fault"));
        }
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let records = salvage_decode(&std::fs::read(&self.path)?).records;
        let kept = rewrite(records);
        let mut data = Vec::new();
        for rec in &kept {
            data.extend_from_slice(&encode_frame(rec));
        }
        let new_handle = atomic_rewrite(&self.path, &data)?;
        *file = new_handle;
        self.len.store(data.len() as u64, Ordering::Relaxed);
        Ok(data.len() as u64)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Where salvage quarantines skipped bytes: `<wal>.quarantine`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// Replace the contents of `path` with `data` atomically and return an
/// append handle to the new file. Writes `<path>.tmp`, syncs it, opens
/// the handle on the tmp *before* the rename (the handle tracks the
/// inode, not the name), then renames over the live log.
fn atomic_rewrite(path: &Path, data: &[u8]) -> io::Result<File> {
    let tmp = tmp_path(path);
    let result = (|| {
        {
            let mut out = File::create(&tmp)?;
            out.write_all(data)?;
            out.sync_all()?;
        }
        let handle = OpenOptions::new().append(true).open(&tmp)?;
        std::fs::rename(&tmp, path)?;
        Ok::<File, io::Error>(handle)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Try to decode one full frame at `off`: `Some((record, end))` when the
/// length fits, the checksum matches, and the payload parses.
fn frame_at(data: &[u8], off: usize) -> Option<(Json, usize)> {
    let header = data.get(off..off.checked_add(8)?)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let sum = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let end = off.checked_add(8)?.checked_add(len)?;
    let payload = data.get(off + 8..end)?;
    if fnv1a32(payload) != sum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let json = Json::parse(text).ok()?;
    Some((json, end))
}

struct Salvage {
    records: Vec<Json>,
    /// Frames recovered after the first skipped region.
    salvaged_frames: u64,
    /// `(start, end)` byte ranges of mid-file garbage, in file order.
    quarantined: Vec<(usize, usize)>,
    /// The on-disk bytes differ from a clean render of `records` —
    /// something was skipped, so the log wants an atomic repair.
    dirty: bool,
}

/// Decode every frame that survives in `data`, scanning forward past
/// corrupt regions (see the module docs for the torn-tail / quarantine
/// distinction). Total work is O(bytes · scan) only within corrupt
/// regions; a clean log decodes in one linear pass.
fn salvage_decode(data: &[u8]) -> Salvage {
    let mut records = Vec::new();
    let mut salvaged_frames = 0u64;
    let mut quarantined = Vec::new();
    let mut dirty = false;
    let mut past_corruption = false;
    let mut off = 0usize;
    while off < data.len() {
        if let Some((json, end)) = frame_at(data, off) {
            if past_corruption {
                salvaged_frames += 1;
            }
            records.push(json);
            off = end;
            continue;
        }
        // Invalid at `off`: scan forward for the next decodable frame.
        dirty = true;
        let mut found = None;
        let mut next = off + 1;
        while next.saturating_add(8) <= data.len() {
            if let Some((json, end)) = frame_at(data, next) {
                found = Some((json, next, end));
                break;
            }
            next += 1;
        }
        match found {
            Some((json, start, end)) => {
                quarantined.push((off, start));
                past_corruption = true;
                salvaged_frames += 1;
                records.push(json);
                off = end;
            }
            None => {
                // No decodable frame through end-of-file. An interrupted
                // append leaves a header promising more bytes than the
                // file holds (or less than a header's worth) — a torn
                // tail, dropped silently. Anything else is corruption and
                // is quarantined.
                let remaining = data.len() - off;
                let promised_end = data
                    .get(off..off + 4)
                    .and_then(|b| <[u8; 4]>::try_from(b).ok())
                    .map(|b| u32::from_le_bytes(b) as usize)
                    .and_then(|len| off.checked_add(8)?.checked_add(len));
                let torn = remaining < 8 || promised_end.is_none_or(|end| end > data.len());
                if !torn {
                    quarantined.push((off, data.len()));
                }
                off = data.len();
            }
        }
    }
    Salvage {
        records,
        salvaged_frames,
        quarantined,
        dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("muse_wal_test_{}_{name}", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tmp_path(path));
        let _ = std::fs::remove_file(quarantine_path(path));
    }

    fn rec(n: i64) -> Json {
        Json::obj(vec![
            ("rec", Json::str("answer")),
            ("session", Json::Int(n)),
        ])
    }

    fn sessions(records: &[Json]) -> Vec<i64> {
        records
            .iter()
            .map(|r| r.get("session").and_then(Json::as_int).unwrap())
            .collect()
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        cleanup(&path);
        {
            let (wal, existing, report) = Wal::open(&path).unwrap();
            assert!(existing.is_empty());
            assert!(report.is_clean());
            for i in 0..5 {
                wal.append(&rec(i)).unwrap();
            }
        }
        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[3], rec(3));
        assert!(report.is_clean());
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_dropped_silently_and_repaired() {
        let path = tmp("torn");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.append(&rec(2)).unwrap();
        }
        // Simulate a crash mid-append: a frame header promising more bytes
        // than were written.
        let clean_len = std::fs::read(&path).unwrap().len() as u64;
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&1000u32.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(b"partial");
        std::fs::write(&path, &data).unwrap();

        let (wal, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        // A torn tail is the normal crash shape: no quarantine, no
        // salvage counters, but the log is truncated back to clean.
        assert!(report.is_clean());
        assert_eq!(wal.len(), clean_len, "repair truncates the torn tail");
        assert!(!quarantine_path(&path).exists());
        cleanup(&path);
    }

    #[test]
    fn append_after_torn_tail_survives_a_second_replay() {
        // Regression: before repair-on-open, the append handle landed
        // *after* the torn bytes, so a frame appended post-replay was
        // unreachable on the next replay.
        let path = tmp("torn_twice");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&500u32.to_le_bytes());
        data.extend_from_slice(&7u32.to_le_bytes());
        data.extend_from_slice(b"torn");
        std::fs::write(&path, &data).unwrap();
        {
            let (wal, replayed, _) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 1);
            wal.append(&rec(2)).unwrap();
        }
        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![1, 2]);
        assert!(report.is_clean());
        cleanup(&path);
    }

    #[test]
    fn corrupt_final_frame_is_quarantined() {
        let path = tmp("corrupt");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.append(&rec(2)).unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF; // flip a payload byte of the second record
        std::fs::write(&path, &data).unwrap();

        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0], rec(1));
        // A full-length frame that fails its checksum is corruption, not
        // a torn tail: its bytes are quarantined.
        assert_eq!(report.salvaged_frames, 0);
        assert!(report.quarantined_bytes > 0);
        let q = std::fs::read(quarantine_path(&path)).unwrap();
        assert_eq!(q.len() as u64, report.quarantined_bytes);
        cleanup(&path);
    }

    #[test]
    fn mid_file_corruption_salvages_later_frames() {
        let path = tmp("salvage");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            for i in 0..5 {
                wal.append(&rec(i)).unwrap();
            }
        }
        // Corrupt one payload byte of the *second* frame: everything
        // before it must replay, everything after it must be salvaged.
        let frame_len = encode_frame(&rec(0)).len();
        let mut data = std::fs::read(&path).unwrap();
        data[frame_len + 10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let (wal, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![0, 2, 3, 4]);
        assert_eq!(report.salvaged_frames, 3);
        assert_eq!(report.quarantined_bytes, frame_len as u64);
        // The repaired log replays clean, with the salvaged frames kept.
        wal.append(&rec(9)).unwrap();
        drop(wal);
        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![0, 2, 3, 4, 9]);
        assert!(report.is_clean());
        cleanup(&path);
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let path = tmp("garbage");
        cleanup(&path);
        let a = encode_frame(&rec(1));
        let b = encode_frame(&rec(2));
        let mut data = Vec::new();
        data.extend_from_slice(&a);
        data.extend_from_slice(b"\x00\xFFnoise!");
        data.extend_from_slice(&b);
        std::fs::write(&path, &data).unwrap();

        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![1, 2]);
        assert_eq!(report.salvaged_frames, 1);
        assert_eq!(report.quarantined_bytes, 8);
        cleanup(&path);
    }

    #[test]
    fn fsync_fault_tears_the_frame_and_salvage_recovers() {
        let path = tmp("fsync_fault");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
            let _g =
                muse_fault::arm_scoped(muse_fault::parse_spec("serve.wal.fsync:io@1").unwrap());
            assert!(wal.append(&rec(2)).is_err(), "fsync fault fails append");
            // The fault landed half a frame; the next append goes after it.
            wal.append(&rec(3)).unwrap();
        }
        let (_, replayed, report) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![1, 3]);
        assert_eq!(report.salvaged_frames, 1);
        assert!(report.quarantined_bytes > 0);
        cleanup(&path);
    }

    #[test]
    fn compaction_rewrites_atomically_and_appends_continue() {
        let path = tmp("compact");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            for i in 0..6 {
                wal.append(&rec(i)).unwrap();
            }
            let before = wal.len();
            // Keep only the even records.
            let after = wal
                .compact(|recs| {
                    recs.into_iter()
                        .filter(|r| r.get("session").and_then(Json::as_int).unwrap() % 2 == 0)
                        .collect()
                })
                .unwrap();
            assert!(after < before, "compaction must shrink the log");
            assert_eq!(wal.len(), after);
            // The swapped handle must keep appending to the *live* file.
            wal.append(&rec(100)).unwrap();
        }
        let (_, replayed, _) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![0, 2, 4, 100]);
        cleanup(&path);
    }

    #[test]
    fn compact_fault_leaves_live_log_untouched() {
        let path = tmp("compact_fault");
        cleanup(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        wal.append(&rec(1)).unwrap();
        let before = wal.len();
        {
            let _g =
                muse_fault::arm_scoped(muse_fault::parse_spec("serve.wal.compact:io@1").unwrap());
            assert!(wal.compact(|r| r).is_err());
        }
        assert_eq!(wal.len(), before);
        wal.append(&rec(2)).unwrap();
        drop(wal);
        let (_, replayed, _) = Wal::open(&path).unwrap();
        assert_eq!(sessions(&replayed), vec![1, 2]);
        cleanup(&path);
    }

    #[test]
    fn stray_tmp_from_interrupted_compaction_is_ignored() {
        let path = tmp("straytmp");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
        }
        // Simulate a crash after writing the compacted tmp but before the
        // rename: the tmp must not shadow or corrupt the live log.
        let tmp_file = super::tmp_path(&path);
        std::fs::write(&tmp_file, b"garbage left by a crash").unwrap();
        let (_, replayed, _) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(!tmp_file.exists(), "open cleans up the stray tmp");
        cleanup(&path);
    }

    #[test]
    fn append_reopens_after_replay() {
        let path = tmp("reopen");
        cleanup(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(&rec(1)).unwrap();
        }
        {
            let (wal, replayed, _) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 1);
            wal.append(&rec(2)).unwrap();
        }
        let (_, replayed, _) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        cleanup(&path);
    }
}
