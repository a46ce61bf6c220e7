//! # Durable checkpoint store — CRC-framed snapshot segments
//!
//! A fault campaign's clean reference run takes a
//! [`ProcessorSnapshot`](cimon_pipeline::ProcessorSnapshot) at regular
//! retired-instruction intervals, so faulted runs can restart from the
//! last clean checkpoint instead of from scratch. Held in RAM those
//! snapshots make the campaign's memory footprint scale with program
//! length; with [`SpillMode::Disk`] this module spills them to disk
//! instead, in an append-only *segment* of self-describing frames, so
//! the resident working set is one frame regardless of how long the
//! run is.
//!
//! ## Frame format
//!
//! Every frame is independently verifiable:
//!
//! ```text
//! +--------+--------+--------+--------+----------...----+--------+
//! | MAGIC  |  seq   |  len   |  hcrc  |     payload     |  pcrc  |
//! | 4 B    |  u32   |  u32   |  u32   |     len B       |  u32   |
//! +--------+--------+--------+--------+----------...----+--------+
//! ```
//!
//! All integers little-endian. `hcrc` is a CRC-32 over the first 12
//! header bytes; `pcrc` is a CRC-32 over the payload. `seq` is the
//! frame's append index, so a scan can tell a wrong-file or
//! restarted-writer segment from a clean one.
//!
//! ## Quarantine ladder
//!
//! [`scan`] walks the segment once, sequentially, with a single-frame
//! buffer (no mmap), and classifies every frame:
//!
//! * **Good** — header and payload CRCs verify; the frame is usable.
//! * **Bad payload** — the header verifies but the payload CRC does
//!   not. The length field is trustworthy (it is covered by `hcrc`),
//!   so exactly this frame is quarantined and the scan continues at
//!   the next one.
//! * **Bad header** — the magic, `hcrc`, or `seq` check fails. Nothing
//!   after this point can be framed reliably, so the remainder of the
//!   segment is quarantined wholesale ([`SegmentIndex::desynced`]).
//! * **Torn** — the file ends mid-frame (including a length field
//!   that runs past end-of-file): the classic crash-mid-write tail.
//!   The fragment is quarantined.
//!
//! A quarantined frame never produces bytes; consumers degrade by
//! *recomputing from an earlier point* (a campaign runs that faulted
//! execution from scratch), so damaged storage costs saved cycles,
//! never correctness.
//!
//! Segments are scratch spill files — recomputable from the program
//! image — so [`SegmentWriter::finish`] syncs file data but does not
//! fsync the parent directory; torn-write *detection* is what matters
//! here, not cross-power-cycle durability. The serve layer's result
//! journal, whose records are not recomputable without re-simulating,
//! carries the stronger guarantee (see `docs/serve.md`).
//!
//! Under `CIMON_CHAOS=1` the writer itself is hostile: appended frames
//! may have one seeded bit flipped ([`chaos::maybe_flip_segment_bit`])
//! and the close may shear bytes off the final frame
//! ([`chaos::maybe_torn_segment_tail`]), so every consumer's
//! quarantine path is exercised by the differential suites.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chaos;

/// Where a run keeps its checkpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillMode {
    /// Checkpoints stay in RAM (a `Vec<ProcessorSnapshot>`); memory
    /// scales with program length.
    #[default]
    Ram,
    /// Checkpoints are serialised to a CRC-framed scratch segment on
    /// disk as they are taken; RAM holds one frame index entry per
    /// checkpoint.
    Disk,
}

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CKP1";
/// Frame header: magic + seq + len + header CRC.
pub const HEADER_LEN: usize = 16;
/// Frame trailer: payload CRC.
pub const TRAILER_LEN: usize = 4;

/// CRC-32 (IEEE, reflected) — the one implementation in `cimon_core`,
/// re-exported under the names the frame format and the serve layer
/// use.
pub use cimon_core::hash::{crc32, crc32_continue};

/// How a scanned frame classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// Header and payload CRCs verify; [`SegmentReader::read_frame`]
    /// can return its payload.
    Good,
    /// Header verified but the payload CRC did not: this frame is
    /// quarantined, frames after it are still reachable.
    BadPayload,
    /// The header itself failed (magic, CRC, or sequence number): this
    /// frame and everything after it is quarantined.
    BadHeader,
    /// The file ended mid-frame — a torn final write.
    Torn,
}

/// One frame's scan result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Append index (equals the position in [`SegmentIndex::frames`]).
    pub seq: u32,
    /// Byte offset of the frame header in the segment file.
    pub offset: u64,
    /// Payload length in bytes (0 when the header was unreadable).
    pub payload_len: u32,
    /// Classification.
    pub status: FrameStatus,
}

impl FrameInfo {
    /// Whether this frame's payload is usable.
    pub fn is_good(&self) -> bool {
        self.status == FrameStatus::Good
    }
}

/// The result of scanning one segment file.
#[derive(Clone, Debug, Default)]
pub struct SegmentIndex {
    /// Every frame (or unreadable region) in file order. At most one
    /// trailing entry is `BadHeader` or `Torn`.
    pub frames: Vec<FrameInfo>,
    /// Frames whose payload is usable.
    pub good: usize,
    /// Frames (or tail regions) quarantined by the ladder.
    pub quarantined: usize,
    /// Whether the file ended mid-frame.
    pub torn_tail: bool,
    /// Whether a bad header forced wholesale quarantine of the rest of
    /// the file.
    pub desynced: bool,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// The append side of a segment. One writer per segment; frames are
/// written sequentially and the segment is immutable after
/// [`SegmentWriter::finish`].
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    next_seq: u32,
    bytes: u64,
    last_frame_len: u64,
}

impl SegmentWriter {
    /// Create (truncating) the segment at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create(path: &Path) -> std::io::Result<SegmentWriter> {
        Ok(SegmentWriter {
            file: File::create(path)?,
            next_seq: 0,
            bytes: 0,
            last_frame_len: 0,
        })
    }

    /// Append one payload as a framed record, returning its sequence
    /// number. The payload is framed and written immediately — the
    /// writer holds no snapshot bytes across calls, which is what keeps
    /// the spill's working set bounded. Under `CIMON_CHAOS=1` one
    /// seeded bit of the encoded frame may be flipped first.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the file.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u32> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let hcrc = crc32(&frame[..12]);
        frame.extend_from_slice(&hcrc.to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        chaos::maybe_flip_segment_bit(seq as usize, &mut frame);
        self.file.write_all(&frame)?;
        self.next_seq += 1;
        self.bytes += frame.len() as u64;
        self.last_frame_len = frame.len() as u64;
        Ok(seq)
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u32 {
        self.next_seq
    }

    /// Bytes written so far.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Flush and sync the segment, consuming the writer. Returns the
    /// final file size. Under `CIMON_CHAOS=1` the close may shear a
    /// seeded number of bytes off the final frame — the simulated
    /// crash-mid-write whose detection the scanner's torn-tail rung
    /// exists for.
    ///
    /// # Errors
    ///
    /// Any I/O error from the flush or sync.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.file.flush()?;
        self.file.sync_data()?;
        if let Some(drop) =
            chaos::maybe_torn_segment_tail(self.next_seq as usize, self.last_frame_len)
        {
            let keep = self.bytes.saturating_sub(drop);
            self.file.set_len(keep)?;
            self.file.sync_data()?;
            return Ok(keep);
        }
        Ok(self.bytes)
    }
}

/// Scan a segment sequentially, classifying every frame without
/// retaining any payload — the working set is one frame's bytes, and
/// nothing is mapped.
///
/// # Errors
///
/// Any I/O error reading the file. Corruption is *not* an error: it is
/// reported per-frame in the returned [`SegmentIndex`].
pub fn scan(path: &Path) -> std::io::Result<SegmentIndex> {
    let mut file = File::open(path)?;
    let total = file.metadata()?.len();
    let mut index = SegmentIndex {
        bytes: total,
        ..SegmentIndex::default()
    };
    let mut offset = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    while offset < total {
        let seq = index.frames.len() as u32;
        let remaining = total - offset;
        if remaining < HEADER_LEN as u64 {
            index.frames.push(FrameInfo {
                seq,
                offset,
                payload_len: 0,
                status: FrameStatus::Torn,
            });
            index.torn_tail = true;
            index.quarantined += 1;
            break;
        }
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        let stored_seq = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let hcrc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let header_ok = header[..4] == MAGIC && hcrc == crc32(&header[..12]) && stored_seq == seq;
        if !header_ok {
            index.frames.push(FrameInfo {
                seq,
                offset,
                payload_len: 0,
                status: FrameStatus::BadHeader,
            });
            index.desynced = true;
            index.quarantined += 1;
            break;
        }
        let body = u64::from(len) + TRAILER_LEN as u64;
        if remaining - (HEADER_LEN as u64) < body {
            // The length field outruns the file: a torn final write.
            index.frames.push(FrameInfo {
                seq,
                offset,
                payload_len: len,
                status: FrameStatus::Torn,
            });
            index.torn_tail = true;
            index.quarantined += 1;
            break;
        }
        buf.resize(len as usize + TRAILER_LEN, 0);
        file.read_exact(&mut buf)?;
        let pcrc = u32::from_le_bytes([
            buf[len as usize],
            buf[len as usize + 1],
            buf[len as usize + 2],
            buf[len as usize + 3],
        ]);
        let status = if crc32(&buf[..len as usize]) == pcrc {
            index.good += 1;
            FrameStatus::Good
        } else {
            index.quarantined += 1;
            FrameStatus::BadPayload
        };
        index.frames.push(FrameInfo {
            seq,
            offset,
            payload_len: len,
            status,
        });
        offset += HEADER_LEN as u64 + body;
    }
    Ok(index)
}

/// The random-access read side. Each consumer (a campaign worker)
/// opens its own reader — its own `File`, its own cursor — so
/// concurrent reads share nothing.
#[derive(Debug)]
pub struct SegmentReader {
    file: File,
}

impl SegmentReader {
    /// Open the segment for reading.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn open(path: &Path) -> std::io::Result<SegmentReader> {
        Ok(SegmentReader {
            file: File::open(path)?,
        })
    }

    /// Read one frame's payload, re-verifying its CRC (the frame may
    /// have rotted since the scan). Returns `Ok(None)` if the frame is
    /// not [`FrameStatus::Good`] or no longer verifies — the caller's
    /// quarantine path, not an I/O failure.
    ///
    /// # Errors
    ///
    /// Any I/O error reading the file.
    pub fn read_frame(&mut self, frame: &FrameInfo) -> std::io::Result<Option<Vec<u8>>> {
        if !frame.is_good() {
            return Ok(None);
        }
        self.file
            .seek(SeekFrom::Start(frame.offset + HEADER_LEN as u64))?;
        let mut payload = vec![0u8; frame.payload_len as usize];
        self.file.read_exact(&mut payload)?;
        let mut trailer = [0u8; TRAILER_LEN];
        self.file.read_exact(&mut trailer)?;
        if crc32(&payload) != u32::from_le_bytes(trailer) {
            return Ok(None);
        }
        Ok(Some(payload))
    }
}

/// A unique scratch path for one spill segment, under the system temp
/// directory. The file is deleted when the handle drops, so a spilled
/// campaign leaves nothing behind even on the error paths.
#[derive(Debug)]
pub struct ScratchSegment {
    path: PathBuf,
}

impl ScratchSegment {
    /// Reserve a fresh scratch path (the file itself is created by the
    /// [`SegmentWriter`]).
    pub fn new(label: &str) -> ScratchSegment {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cimon-ckpt-{}-{}-{label}.seg",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        ScratchSegment { path }
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> ScratchSegment {
        ScratchSegment::new(name)
    }

    fn write_segment(path: &Path, payloads: &[&[u8]]) {
        let mut w = SegmentWriter::create(path).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        w.finish().unwrap();
    }

    /// Tests that write through the chaos injection sites and then
    /// assert exact on-disk structure skip under `CIMON_CHAOS=1` — the
    /// chaos-mode spill story is owned by
    /// `disk_spill_under_chaos_classifies_like_ram` in
    /// `crates/faults/tests/chaos_campaign.rs`.
    fn chaos_mode() -> bool {
        chaos::enabled()
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Continuation matches one-shot.
        let mid = crc32_continue(0xFFFF_FFFF, b"12345");
        assert_eq!(crc32_continue(mid, b"6789") ^ 0xFFFF_FFFF, 0xCBF4_3926);
    }

    #[test]
    fn round_trips_every_frame() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("roundtrip");
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 10 + i as usize * 7]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        write_segment(seg.path(), &refs);
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 5);
        assert_eq!(index.quarantined, 0);
        assert!(!index.torn_tail);
        assert!(!index.desynced);
        let mut reader = SegmentReader::open(seg.path()).unwrap();
        for (i, frame) in index.frames.iter().enumerate() {
            assert_eq!(frame.seq as usize, i);
            assert!(frame.is_good());
            let got = reader.read_frame(frame).unwrap().unwrap();
            assert_eq!(got, payloads[i]);
        }
    }

    #[test]
    fn scan_of_zero_length_file_is_empty() {
        let seg = scratch("empty");
        File::create(seg.path()).unwrap();
        let index = scan(seg.path()).unwrap();
        assert!(index.frames.is_empty());
        assert_eq!(index.good, 0);
        assert!(!index.torn_tail);
    }

    #[test]
    fn torn_tail_quarantines_only_the_last_frame() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("torn");
        write_segment(seg.path(), &[b"alpha", b"bravo", b"charlie"]);
        let full = std::fs::metadata(seg.path()).unwrap().len();
        // Shear 3 bytes off the final frame.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(seg.path())
            .unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 2);
        assert_eq!(index.quarantined, 1);
        assert!(index.torn_tail);
        assert_eq!(index.frames[2].status, FrameStatus::Torn);
        assert!(index.frames[0].is_good() && index.frames[1].is_good());
    }

    #[test]
    fn header_only_torn_tail_is_detected() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("torn-header");
        write_segment(seg.path(), &[b"only"]);
        // Append half a header: a crash between header and payload.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(seg.path())
            .unwrap();
        f.write_all(&MAGIC).unwrap();
        f.write_all(&[9, 9]).unwrap();
        drop(f);
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 1);
        assert!(index.torn_tail);
        assert_eq!(index.frames[1].status, FrameStatus::Torn);
    }

    #[test]
    fn length_header_past_end_of_file_is_torn_not_a_crash() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("len-overrun");
        // A single frame whose (CRC-valid) header claims a payload far
        // larger than the file.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&0xFFFF_0000u32.to_le_bytes());
        let hcrc = crc32(&header);
        header.extend_from_slice(&hcrc.to_le_bytes());
        header.extend_from_slice(b"short");
        std::fs::write(seg.path(), &header).unwrap();
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 0);
        assert!(index.torn_tail);
        assert_eq!(index.frames[0].status, FrameStatus::Torn);
        assert_eq!(index.frames[0].payload_len, 0xFFFF_0000);
    }

    #[test]
    fn payload_flip_quarantines_exactly_that_frame() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("payload-flip");
        write_segment(seg.path(), &[b"alpha", b"bravo", b"charlie"]);
        let mut bytes = std::fs::read(seg.path()).unwrap();
        // Frame 1's payload starts after frame 0 (16+5+4) plus its own
        // header.
        let pos = (HEADER_LEN + 5 + TRAILER_LEN) + HEADER_LEN + 2;
        bytes[pos] ^= 0x20;
        std::fs::write(seg.path(), &bytes).unwrap();
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 2);
        assert_eq!(index.quarantined, 1);
        assert!(!index.desynced);
        assert_eq!(index.frames[1].status, FrameStatus::BadPayload);
        assert!(index.frames[0].is_good() && index.frames[2].is_good());
        // The quarantined frame yields no bytes.
        let mut reader = SegmentReader::open(seg.path()).unwrap();
        assert!(reader.read_frame(&index.frames[1]).unwrap().is_none());
        assert_eq!(
            reader.read_frame(&index.frames[2]).unwrap().unwrap(),
            b"charlie"
        );
    }

    #[test]
    fn header_flip_quarantines_the_rest_of_the_segment() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("header-flip");
        write_segment(seg.path(), &[b"alpha", b"bravo", b"charlie"]);
        let mut bytes = std::fs::read(seg.path()).unwrap();
        // Flip a bit in frame 1's length field.
        let pos = (HEADER_LEN + 5 + TRAILER_LEN) + 9;
        bytes[pos] ^= 0x01;
        std::fs::write(seg.path(), &bytes).unwrap();
        let index = scan(seg.path()).unwrap();
        assert_eq!(index.good, 1);
        assert!(index.desynced);
        assert_eq!(index.frames.len(), 2);
        assert_eq!(index.frames[1].status, FrameStatus::BadHeader);
    }

    #[test]
    fn rot_between_scan_and_read_is_caught() {
        if chaos_mode() {
            return;
        }
        let seg = scratch("late-rot");
        write_segment(seg.path(), &[b"alpha"]);
        let index = scan(seg.path()).unwrap();
        assert!(index.frames[0].is_good());
        let mut bytes = std::fs::read(seg.path()).unwrap();
        bytes[HEADER_LEN + 1] ^= 0x08;
        std::fs::write(seg.path(), &bytes).unwrap();
        let mut reader = SegmentReader::open(seg.path()).unwrap();
        assert!(reader.read_frame(&index.frames[0]).unwrap().is_none());
    }

    #[test]
    fn scratch_segment_cleans_up_on_drop() {
        let seg = scratch("cleanup");
        write_segment(seg.path(), &[b"x"]);
        let path = seg.path().to_path_buf();
        assert!(path.exists());
        drop(seg);
        assert!(!path.exists());
    }
}
