//! Segment files of the log-structured persistent store.
//!
//! A segment is one append-only file: an 8-byte magic header followed by
//! batch frames (see `dynasore_types::durable` for the frame layout). A
//! shard this build creates writes one, `seg-0000000001.log`, for its whole
//! life; older builds cut the log into several `seg-<seq>.log` files, which
//! replay in sequence order, so a view's events replay in the order they
//! were acknowledged.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dynasore_types::{DurableRecord, Error, Event, Result, MAX_RECORD_BYTES, RECORD_HEADER_BYTES};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"DYNASEG1";

/// Builds the file name of segment `seq`.
pub(crate) fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:010}.log")
}

/// Parses a segment sequence number out of a file name, if it is one.
pub(crate) fn parse_segment_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if rest.len() != 10 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Lists the segment files of `dir`, sorted by sequence number.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_seq) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// Fsyncs the directory `dir`, making the entries created in it (files,
/// subdirectories, renames) survive a machine crash: fsyncing a new file
/// does not persist its name.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// What replaying one segment found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SegmentReplay {
    /// Bytes read and validated (magic header plus whole frames).
    pub valid_bytes: u64,
    /// Frames decoded.
    pub records: u64,
    /// Trailing bytes discarded as a torn tail (0 for a clean segment).
    pub torn_bytes: u64,
}

/// Reads every valid frame of the segment at `path` in order, invoking
/// `apply` with each frame's events, and reports how far the valid prefix
/// reached. A torn tail (crash truncation) ends the replay silently; a
/// structurally corrupt frame (valid checksum, malformed body) is an error.
/// Frames stream through one reusable buffer, so replay holds one at most.
pub(crate) fn replay_segment(
    path: &Path,
    mut apply: impl FnMut(Vec<Event>),
) -> Result<SegmentReplay> {
    let file = File::open(path)?;
    // Bytes appended while the replay runs are not part of it.
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file.take(len));
    let mut frame = Vec::new();
    let mut replay = SegmentReplay::default();
    // A header shorter than the magic is itself a torn tail (a crash can
    // truncate a freshly created segment); wrong bytes are corruption.
    let magic = SEGMENT_MAGIC.len();
    reader.by_ref().take(magic as u64).read_to_end(&mut frame)?;
    if !SEGMENT_MAGIC.starts_with(&frame) {
        return Err(Error::CorruptRecord(format!(
            "{} does not start with the segment magic",
            path.display()
        )));
    }
    if frame.len() == magic {
        replay.valid_bytes = magic as u64;
        loop {
            frame.clear();
            let header = RECORD_HEADER_BYTES as u64;
            reader.by_ref().take(header).read_to_end(&mut frame)?;
            if frame.len() == RECORD_HEADER_BYTES {
                let body = u32::from_le_bytes(frame[..4].try_into().unwrap());
                // A length over the cap is a torn tail: decode says so.
                if body as usize <= MAX_RECORD_BYTES {
                    reader.by_ref().take(body.into()).read_to_end(&mut frame)?;
                }
            }
            let offset = replay.valid_bytes;
            let decoded = DurableRecord::decode(&frame).map_err(|e| match e {
                Error::CorruptRecord(detail) => {
                    Error::CorruptRecord(format!("{} at offset {offset}: {detail}", path.display()))
                }
                other => other,
            })?;
            let Some((events, consumed)) = decoded else {
                break; // The end of the log, or a torn tail.
            };
            apply(events);
            replay.records += 1;
            replay.valid_bytes += consumed as u64;
        }
    }
    replay.torn_bytes = len - replay.valid_bytes;
    Ok(replay)
}

/// The writable side of one segment file.
#[derive(Debug)]
pub(crate) struct Segment {
    writer: BufWriter<File>,
    /// Logical length: every byte handed to the writer, flushed or not.
    len: u64,
}

impl Segment {
    /// Creates segment 1, a fresh shard's one file, in `dir`, fsyncs `dir`
    /// so the new file's entry is durable, and writes its magic header.
    pub fn create(dir: &Path) -> Result<Segment> {
        let path = dir.join(segment_file_name(1));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        sync_dir(dir)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(SEGMENT_MAGIC)?;
        Ok(Segment {
            writer,
            len: SEGMENT_MAGIC.len() as u64,
        })
    }

    /// Reopens an existing segment for appending, truncating it to
    /// `valid_len` first (crash repair: the torn tail is physically removed
    /// so new records append after the last whole one). A crash can even
    /// tear the magic header of a freshly created segment; in that case the
    /// header is rewritten so the file stays a valid, empty segment.
    pub fn reopen(dir: &Path, seq: u64, valid_len: u64) -> Result<Segment> {
        let path = dir.join(segment_file_name(seq));
        let magic_len = SEGMENT_MAGIC.len() as u64;
        let mut file = OpenOptions::new().write(true).open(&path)?;
        let len = if valid_len < magic_len {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(SEGMENT_MAGIC)?;
            magic_len
        } else {
            file.set_len(valid_len)?;
            file.seek(SeekFrom::End(0))?;
            valid_len
        };
        Ok(Segment {
            writer: BufWriter::new(file),
            len,
        })
    }

    /// Logical length in bytes (including buffered, not-yet-flushed data).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Appends pre-encoded record bytes.
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.writer.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Pushes buffered bytes to the operating system.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flushes and then fsyncs the file: after this returns, every appended
    /// record survives a machine crash.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Flushes buffered bytes to the OS and returns a duplicated handle to
    /// the backing file. Fsyncing the duplicate covers every byte flushed
    /// here (the kernel syncs the *file*, not the descriptor), so a caller
    /// can make the segment durable without holding whatever lock guards
    /// it.
    pub fn detached_handle(&mut self) -> Result<File> {
        self.writer.flush()?;
        Ok(self.writer.get_ref().try_clone()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasore_types::{SimTime, UserId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynasore-segment-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn event(user: u32, t: u64) -> Event {
        Event::new(
            UserId::new(user),
            SimTime::from_secs(t),
            vec![user as u8; 5],
        )
    }

    /// A one-event batch frame, built by the store's own encoder.
    fn frame(user: u32, t: u64) -> Vec<u8> {
        let e = event(user, t);
        let mut buf = Vec::new();
        DurableRecord::batch_begin(&mut buf);
        DurableRecord::batch_push(&mut buf, e.author(), e.timestamp(), e.payload()).unwrap();
        DurableRecord::batch_finish(&mut buf, 1).unwrap();
        buf
    }

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(segment_file_name(7), "seg-0000000007.log");
        assert_eq!(parse_segment_seq("seg-0000000007.log"), Some(7));
        assert_eq!(parse_segment_seq("seg-7.log"), None);
        assert_eq!(parse_segment_seq("other.log"), None);
        assert_eq!(parse_segment_seq("seg-00000000xx.log"), None);
    }

    #[test]
    fn append_flush_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut seg = Segment::create(&dir).unwrap();
        for t in 0..10u64 {
            seg.append(&frame(t as u32, t)).unwrap();
        }
        seg.sync().unwrap();
        let mut replayed = Vec::new();
        let stats = replay_segment(&dir.join(segment_file_name(1)), |events| {
            replayed.push(events)
        })
        .unwrap();
        assert_eq!(stats.records, 10);
        assert_eq!(stats.torn_bytes, 0);
        assert_eq!(stats.valid_bytes, seg.len());
        assert_eq!(replayed[3], vec![event(3, 3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repaired_on_reopen() {
        let dir = temp_dir("torn");
        let path = dir.join(segment_file_name(1));
        let mut seg = Segment::create(&dir).unwrap();
        let first = frame(1, 1);
        let first_end = SEGMENT_MAGIC.len() as u64 + first.len() as u64;
        seg.append(&first).unwrap();
        seg.append(&frame(2, 2)).unwrap();
        seg.sync().unwrap();
        drop(seg);
        // Crash: the second frame loses its last byte.
        let full = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 1)
            .unwrap();
        let mut frames = 0;
        let stats = replay_segment(&path, |_| frames += 1).unwrap();
        assert_eq!(frames, 1);
        assert_eq!(stats.valid_bytes, first_end);
        assert!(stats.torn_bytes > 0);
        // Reopen truncates the tail and appends cleanly after it.
        let mut seg = Segment::reopen(&dir, 1, stats.valid_bytes).unwrap();
        seg.append(&frame(3, 3)).unwrap();
        seg.sync().unwrap();
        let mut replayed = Vec::new();
        let stats = replay_segment(&path, |events| replayed.extend(events)).unwrap();
        assert_eq!(stats.torn_bytes, 0);
        assert_eq!(replayed, vec![event(1, 1), event(3, 3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A header announcing more than the frame cap is a torn tail, and
    /// so is one whose body runs past the end of the file: replay stops
    /// before either and counts every byte after the last whole frame.
    #[test]
    fn impossible_and_overrunning_lengths_are_torn() {
        let dir = temp_dir("lengths");
        let path = dir.join(segment_file_name(1));
        let whole = frame(1, 1);
        for announced in [MAX_RECORD_BYTES as u32 + 1, 1_000] {
            let mut bytes = [&SEGMENT_MAGIC[..], &whole].concat();
            bytes.extend_from_slice(&announced.to_le_bytes());
            bytes.extend_from_slice(&[0xAB; 20]);
            std::fs::write(&path, &bytes).unwrap();
            let mut frames = 0;
            let stats = replay_segment(&path, |_| frames += 1).unwrap();
            assert_eq!(frames, 1, "length {announced}");
            assert_eq!(
                stats.valid_bytes,
                (SEGMENT_MAGIC.len() + whole.len()) as u64
            );
            assert_eq!(stats.torn_bytes, 24, "length {announced}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected_and_short_magic_is_torn() {
        let dir = temp_dir("magic");
        let alien = dir.join(segment_file_name(1));
        std::fs::write(&alien, b"NOTASEGMENT").unwrap();
        assert!(matches!(
            replay_segment(&alien, |_| {}),
            Err(Error::CorruptRecord(_))
        ));
        // A magic prefix cut short by a crash is an empty segment.
        std::fs::write(&alien, &SEGMENT_MAGIC[..3]).unwrap();
        let stats = replay_segment(&alien, |_| panic!("no records")).unwrap();
        assert_eq!(stats.records, 0);
        assert_eq!(stats.torn_bytes, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_ignores_unrelated_files() {
        let dir = temp_dir("list");
        std::fs::write(dir.join(segment_file_name(3)), SEGMENT_MAGIC).unwrap();
        drop(Segment::create(&dir).unwrap());
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        let segments = list_segments(&dir).unwrap();
        let seqs: Vec<u64> = segments.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![1, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
