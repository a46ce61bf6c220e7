//! The durable write-ahead result journal.
//!
//! Append-only JSONL: one flat JSON object per line, each carrying a
//! CRC-32 over its payload. A record is written and flushed *before*
//! the response leaves the server, so any result a client ever saw is
//! durable — a killed process replays the journal on startup and
//! serves completed work from it instead of re-simulating.
//!
//! Failure handling on replay:
//!
//! * **Torn tail** — a crash mid-append leaves a final line without a
//!   newline (or an empty fragment). The tail is truncated off the
//!   file and reported in [`Replay::torn_truncated`]; the half-written
//!   result was never acknowledged, so dropping it is correct.
//! * **Corrupt records** — a line whose CRC does not match (bit rot,
//!   or the chaos harness's injected flips) is dropped and counted in
//!   [`Replay::corrupt_dropped`]. The server simply recomputes that
//!   result; damaged storage degrades to lost work, never to wrong
//!   answers.
//! * **Rotation** — when the file grows past the configured limit it
//!   is compacted: the live records are written to a sibling temp file
//!   which is fsynced and atomically renamed over the journal, so a
//!   crash during rotation leaves either the old or the new file,
//!   never a mixture. After a compaction the next one waits until the
//!   file has also doubled: a live set larger than the limit would
//!   otherwise be rewritten whole on every append.
//! * **Directory durability** — renaming or creating a file makes the
//!   *data* durable only once the directory entry is too. The journal
//!   therefore fsyncs its parent directory after creating the file and
//!   after the rotation rename; without this, a power cut after a
//!   "successful" rotation could resurrect the pre-rotation journal —
//!   or no journal at all — on the next boot.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use cimon_bench::json::{self, FlatObject};
use cimon_sim::chaos;
use cimon_sim::ckpt::crc32;

/// Fsync the parent directory of `path`, making a just-created (or
/// just-renamed-over) directory entry itself durable.
fn fsync_parent(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// One journal record: a completed unit of work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The request key ([`crate::Request::key`]) this result answers.
    pub key: u64,
    /// Record type: `"row"`, `"chunk"` or `"campaign"`.
    pub tag: String,
    /// Tag-specific qualifier (a chunk's `start..end` plan range;
    /// empty otherwise).
    pub extra: String,
    /// The payload: one flat JSON object rendering of the result.
    pub body: String,
}

impl Record {
    /// The canonical bytes the CRC covers.
    fn checked_payload(&self) -> String {
        format!(
            "{:016x}|{}|{}|{}",
            self.key, self.tag, self.extra, self.body
        )
    }

    /// Serialise as one journal line (with trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"crc\":\"{:08x}\",\"key\":\"{:016x}\",\"tag\":\"{}\",\"extra\":\"{}\",\
             \"body\":\"{}\"}}\n",
            crc32(self.checked_payload().as_bytes()),
            self.key,
            json::escape(&self.tag),
            json::escape(&self.extra),
            json::escape(&self.body),
        )
    }

    /// Parse and verify one journal line.
    ///
    /// # Errors
    ///
    /// A description of the syntax error or CRC mismatch.
    pub fn parse(line: &str) -> Result<Record, String> {
        let bodies = json::objects(line)?;
        let body = match bodies.as_slice() {
            [one] => one,
            other => return Err(format!("expected one record object, found {}", other.len())),
        };
        let obj = FlatObject::parse(body)?;
        let key = u64::from_str_radix(&obj.str("key")?, 16)
            .map_err(|_| "record key is not hex".to_string())?;
        let record = Record {
            key,
            tag: obj.str("tag")?,
            extra: obj.str("extra")?,
            body: obj.str("body")?,
        };
        let stored = u32::from_str_radix(&obj.str("crc")?, 16)
            .map_err(|_| "record crc is not hex".to_string())?;
        let actual = crc32(record.checked_payload().as_bytes());
        if stored != actual {
            return Err(format!(
                "crc mismatch: stored {stored:08x}, actual {actual:08x}"
            ));
        }
        Ok(record)
    }
}

/// What startup replay recovered from an existing journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every record that parsed and passed its CRC, in append order.
    pub records: Vec<Record>,
    /// Complete lines dropped for CRC mismatch or bad syntax.
    pub corrupt_dropped: usize,
    /// Whether a torn (newline-less) tail was truncated off the file.
    pub torn_truncated: bool,
}

/// The append side of the journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    bytes: u64,
    appended: u64,
    /// Size of the file right after the last compaction (0 before
    /// any): the next one waits until the file is twice this.
    compacted: u64,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying whatever it
    /// already holds. Truncates a torn tail in place.
    ///
    /// # Errors
    ///
    /// Any I/O error touching the file.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Replay)> {
        let mut replay = Replay::default();
        let mut existing = Vec::new();
        let created = !path.exists();
        if !created {
            File::open(path)?.read_to_end(&mut existing)?;
        }
        // Everything up to (and including) the last newline is a
        // sequence of complete lines; anything after it is a torn
        // append that was never acknowledged.
        let complete = match existing.iter().rposition(|&b| b == b'\n') {
            Some(nl) => nl + 1,
            None => 0,
        };
        if complete < existing.len() {
            replay.torn_truncated = true;
        }
        let text = String::from_utf8_lossy(&existing[..complete]);
        for line in text.lines() {
            match Record::parse(line) {
                Ok(r) => replay.records.push(r),
                Err(_) => replay.corrupt_dropped += 1,
            }
        }
        if replay.torn_truncated {
            // Drop the tail so the next append starts on a clean line.
            let keep = existing[..complete].to_vec();
            let mut f = File::create(path)?;
            f.write_all(&keep)?;
            f.sync_data()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if created {
            // The file's directory entry must be durable before any
            // record written through it can be considered durable.
            fsync_parent(path)?;
        }
        let bytes = file.metadata()?.len();
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                bytes,
                appended: 0,
                compacted: 0,
            },
            replay,
        ))
    }

    /// Append one record and flush it to the OS before returning — the
    /// durability point a response may only be sent after. Under
    /// `CIMON_CHAOS=1` the encoded line (newline excluded) may have one
    /// seeded bit flipped first, exercising the CRC verification on
    /// the replay side.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the file.
    pub fn append(&mut self, record: &Record, chaos_index: usize) -> std::io::Result<()> {
        let mut line = record.to_line().into_bytes();
        let payload_len = line.len() - 1;
        chaos::maybe_flip_journal_bit(chaos_index, &mut line[..payload_len]);
        self.file.write_all(&line)?;
        self.file.flush()?;
        self.bytes += line.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Whether [`Journal::rotate_if_needed`] would compact now: the file
    /// is larger than both `rotate_bytes` and twice its size right after
    /// the last compaction. The doubling bounds compactions to
    /// O(log n) over n appends even when the live set alone exceeds
    /// `rotate_bytes`, keeping the amortised cost per append constant.
    pub fn rotation_due(&self, rotate_bytes: u64) -> bool {
        self.bytes > rotate_bytes.max(self.compacted.saturating_mul(2))
    }

    /// Compact the journal down to `live` if
    /// [`rotation is due`](Journal::rotation_due): write a sibling temp
    /// file, fsync it, and atomically rename it over the journal.
    /// Returns whether a rotation happened.
    ///
    /// # Errors
    ///
    /// Any I/O error during the rewrite; the original journal is
    /// untouched unless the final rename succeeded.
    pub fn rotate_if_needed(
        &mut self,
        rotate_bytes: u64,
        live: &[Record],
    ) -> std::io::Result<bool> {
        if !self.rotation_due(rotate_bytes) {
            return Ok(false);
        }
        let tmp = self.path.with_extension("rotate-tmp");
        {
            let mut f = File::create(&tmp)?;
            for r in live {
                f.write_all(r.to_line().as_bytes())?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The rename is only durable once the directory entry is; skip
        // it and a power cut can resurrect the pre-rotation journal.
        fsync_parent(&self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = self.file.metadata()?.len();
        self.compacted = self.bytes;
        Ok(true)
    }

    /// Force everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Any I/O error from the sync.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Records appended through this handle (not counting replayed
    /// history).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Current journal size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cimon-journal-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("results.jsonl")
    }

    fn rec(key: u64, body: &str) -> Record {
        Record {
            key,
            tag: "row".to_string(),
            extra: String::new(),
            body: body.to_string(),
        }
    }

    /// Tests that append through the chaos bit-flip site and then
    /// assert exact on-disk contents skip under `CIMON_CHAOS=1` —
    /// `tests/chaos_recovery.rs` owns the chaos-mode journal story.
    fn chaos_mode() -> bool {
        chaos::enabled()
    }

    #[test]
    fn records_survive_reopen() {
        if chaos_mode() {
            return;
        }
        let path = scratch("reopen");
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        j.append(&rec(1, "{\"cycles\":10}"), usize::MAX).unwrap();
        j.append(&rec(2, "{\"cycles\":20,\"w\":\"a,b}{\"}"), usize::MAX)
            .unwrap();
        j.sync().unwrap();
        drop(j);
        let (j2, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0], rec(1, "{\"cycles\":10}"));
        assert_eq!(replay.records[1].body, "{\"cycles\":20,\"w\":\"a,b}{\"}");
        assert_eq!(replay.corrupt_dropped, 0);
        assert!(!replay.torn_truncated);
        assert_eq!(j2.appended(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        if chaos_mode() {
            return;
        }
        let path = scratch("torn");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&rec(1, "{}"), usize::MAX).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"crc\":\"dead").unwrap();
        drop(f);
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.torn_truncated);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.corrupt_dropped, 0);
        // The truncation is durable: a second open sees a clean file.
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(!replay.torn_truncated);
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn corrupt_records_are_dropped_not_trusted() {
        if chaos_mode() {
            return;
        }
        let path = scratch("corrupt");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&rec(1, "{\"a\":1}"), usize::MAX).unwrap();
        j.append(&rec(2, "{\"a\":2}"), usize::MAX).unwrap();
        j.append(&rec(3, "{\"a\":3}"), usize::MAX).unwrap();
        drop(j);
        // Flip one payload bit of the middle line on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 10;
        bytes[second_line] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.corrupt_dropped, 1);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].key, 1);
        assert_eq!(replay.records[1].key, 3);
    }

    #[test]
    fn rotation_compacts_atomically() {
        let path = scratch("rotate");
        let (mut j, _) = Journal::open(&path).unwrap();
        for i in 0..50 {
            j.append(&rec(i, "{\"a\":1}"), usize::MAX).unwrap();
        }
        let before = j.len_bytes();
        // Keep only two live records.
        let live = [rec(48, "{\"a\":1}"), rec(49, "{\"a\":1}")];
        assert!(j.rotate_if_needed(before - 1, &live).unwrap());
        assert!(j.len_bytes() < before);
        assert!(!path.with_extension("rotate-tmp").exists());
        drop(j);
        let (j2, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].key, 48);
        // Below the threshold nothing rotates.
        let mut j2 = j2;
        assert!(!j2.rotate_if_needed(1 << 20, &live).unwrap());
    }

    #[test]
    fn oversized_live_set_rotates_logarithmically_often() {
        // Every append is live and the threshold is tiny, so each
        // compaction leaves the file above the threshold. Without the
        // doubling rule every append would rewrite the whole journal.
        let path = scratch("hysteresis");
        let (mut j, _) = Journal::open(&path).unwrap();
        let mut live = Vec::new();
        let mut rotations = 0;
        const N: u64 = 512;
        for i in 0..N {
            let r = rec(i, "{\"a\":1}");
            j.append(&r, usize::MAX).unwrap();
            live.push(r);
            if j.rotate_if_needed(64, &live).unwrap() {
                rotations += 1;
                // Compaction keeps exactly the live set.
                let line = live[0].to_line().len() as u64;
                assert_eq!(j.len_bytes(), line * live.len() as u64);
            }
        }
        // Sizes double between compactions: about log2(N) of them.
        assert!(rotations >= 3, "rotated {rotations} times");
        assert!(rotations <= 10, "rotated {rotations} times for {N} appends");
        drop(j);
        if !chaos_mode() {
            let (_, replay) = Journal::open(&path).unwrap();
            assert_eq!(replay.records, live);
        }
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The on-disk record format, pinned byte for byte: a journal
    /// written by any build must replay in every other.
    #[test]
    fn record_line_is_golden() {
        let r = Record {
            key: 0x00C1_A05D_EAD0_BEEF,
            tag: "sweep-row".to_string(),
            extra: "3|0badf00d".to_string(),
            body: "{\"row\":3,\"name\":\"a\\\"b\"}".to_string(),
        };
        let line = concat!(
            r#"{"crc":"f4450a7e","key":"00c1a05dead0beef","tag":"sweep-row","#,
            r#""extra":"3|0badf00d","body":"{\"row\":3,\"name\":\"a\\\"b\"}"}"#,
            "\n",
        );
        assert_eq!(r.to_line(), line);
        assert_eq!(Record::parse(line.trim_end()), Ok(r));
    }

    #[test]
    fn zero_length_journal_opens_clean() {
        let path = scratch("zero");
        File::create(&path).unwrap();
        let (j, replay) = Journal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt_dropped, 0);
        assert!(!replay.torn_truncated);
        assert_eq!(j.len_bytes(), 0);
    }

    #[test]
    fn journal_that_is_only_a_torn_tail_truncates_to_empty() {
        if chaos_mode() {
            return;
        }
        let path = scratch("all-torn");
        // A crash during the very first append: a fragment, no newline
        // anywhere in the file.
        std::fs::write(&path, b"{\"crc\":\"0123abcd\",\"key\":\"00").unwrap();
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.torn_truncated);
        assert!(replay.records.is_empty());
        assert_eq!(replay.corrupt_dropped, 0);
        assert_eq!(j.len_bytes(), 0, "truncation leaves an empty file");
        // The file is immediately usable for fresh appends.
        j.append(&rec(5, "{\"a\":5}"), usize::MAX).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(!replay.torn_truncated);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].key, 5);
    }

    #[test]
    fn interleaved_request_records_replay_in_append_order() {
        if chaos_mode() {
            return;
        }
        // Two concurrent sweeps interleave their row records; replay
        // must keep global append order AND per-key order so each
        // request's contiguous-prefix scan sees its rows as written.
        let path = scratch("interleaved");
        let (mut j, _) = Journal::open(&path).unwrap();
        let mut expect = Vec::new();
        for i in 0..4u64 {
            for key in [0xAAAA, 0xBBBB] {
                let r = Record {
                    key,
                    tag: "sweep-row".to_string(),
                    extra: format!("{i}|00000000"),
                    body: format!("{{\"row\":{i}}}"),
                };
                j.append(&r, usize::MAX).unwrap();
                expect.push(r);
            }
        }
        drop(j);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, expect);
        for key in [0xAAAA, 0xBBBB] {
            let rows: Vec<&str> = replay
                .records
                .iter()
                .filter(|r| r.key == key)
                .map(|r| r.extra.split('|').next().unwrap())
                .collect();
            assert_eq!(rows, ["0", "1", "2", "3"], "key {key:x} rows out of order");
        }
    }
}
