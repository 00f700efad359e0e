//! The log file of one shard of the log-structured persistent store.
//!
//! A shard's log is one append-only file, `<root>/shard-NNNN.log`, for its
//! whole life: an 8-byte magic header followed by batch frames (see
//! `dynasore_types::durable` for the frame layout) in the order they were
//! acknowledged, so a view's events replay in that order.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dynasore_types::{DurableRecord, Error, Event, Result, MAX_RECORD_BYTES, RECORD_HEADER_BYTES};

use crate::log::RecoveryStats;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"DYNASEG1";

/// Fsyncs the directory that holds `path`, making a new entry there (a
/// file, a subdirectory, a rename) survive a machine crash: fsyncing a new
/// file does not persist its name.
pub(crate) fn sync_parent(path: &Path) -> Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Reads every valid frame of the segment at `path` in order, invoking
/// `apply` with each frame's events, and reports what the replay measured:
/// `bytes_replayed` is the valid prefix (magic header plus whole frames), the
/// length a reopen truncates the file to. A torn tail (crash truncation)
/// ends the replay silently; a structurally corrupt frame (valid checksum,
/// malformed body) is an error. A missing file — a shard whose root crashed
/// after its manifest was written but before the shard file was created —
/// replays as an empty log. Frames stream through one reusable buffer, so
/// replay holds one at most.
pub(crate) fn replay_segment(
    path: &Path,
    mut apply: impl FnMut(Vec<Event>),
) -> Result<RecoveryStats> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(RecoveryStats::default()),
        Err(e) => return Err(e.into()),
    };
    // Bytes appended while the replay runs are not part of it.
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file.take(len));
    let mut frame = Vec::new();
    let mut replay = RecoveryStats::default();
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
        replay.bytes_replayed = magic as u64;
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
            let offset = replay.bytes_replayed;
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
            replay.records_replayed += 1;
            replay.bytes_replayed += consumed as u64;
        }
    }
    replay.torn_bytes = len - replay.bytes_replayed;
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
    /// Creates the segment file at `path`, fsyncs the directory that holds
    /// it so the new file's entry is durable, and writes its magic header.
    pub fn create(path: &Path) -> Result<Segment> {
        let file = OpenOptions::new().create_new(true).write(true).open(path)?;
        sync_parent(path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(SEGMENT_MAGIC)?;
        Ok(Segment {
            writer,
            len: SEGMENT_MAGIC.len() as u64,
        })
    }

    /// Reopens the existing segment file at `path` for appending, truncating
    /// it to `valid_len` first (crash repair: the torn tail is physically
    /// removed so new records append after the last whole one). A crash can
    /// even tear the magic header of a freshly created segment; in that case
    /// the header is rewritten so the file stays a valid, empty segment.
    pub fn reopen(path: &Path, valid_len: u64) -> Result<Segment> {
        let magic_len = SEGMENT_MAGIC.len() as u64;
        let mut file = OpenOptions::new().write(true).open(path)?;
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
    use std::path::PathBuf;

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
    fn append_flush_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("shard-0000.log");
        let mut seg = Segment::create(&path).unwrap();
        for t in 0..10u64 {
            seg.append(&frame(t as u32, t)).unwrap();
        }
        seg.sync().unwrap();
        let mut replayed = Vec::new();
        let stats = replay_segment(&path, |events| replayed.push(events)).unwrap();
        assert_eq!(stats.records_replayed, 10);
        assert_eq!(stats.torn_bytes, 0);
        assert_eq!(stats.bytes_replayed, seg.len());
        assert_eq!(replayed[3], vec![event(3, 3)]);
        // A file that was never created replays as an empty log.
        let missing = replay_segment(&dir.join("shard-0001.log"), |_| panic!("no records"));
        assert_eq!(missing.unwrap(), RecoveryStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repaired_on_reopen() {
        let dir = temp_dir("torn");
        let path = dir.join("shard-0000.log");
        let mut seg = Segment::create(&path).unwrap();
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
        assert_eq!(stats.bytes_replayed, first_end);
        assert!(stats.torn_bytes > 0);
        // Reopen truncates the tail and appends cleanly after it.
        let mut seg = Segment::reopen(&path, stats.bytes_replayed).unwrap();
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
        let path = dir.join("shard-0000.log");
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
                stats.bytes_replayed,
                (SEGMENT_MAGIC.len() + whole.len()) as u64
            );
            assert_eq!(stats.torn_bytes, 24, "length {announced}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected_and_short_magic_is_torn() {
        let dir = temp_dir("magic");
        let alien = dir.join("shard-0000.log");
        std::fs::write(&alien, b"NOTASEGMENT").unwrap();
        assert!(matches!(
            replay_segment(&alien, |_| {}),
            Err(Error::CorruptRecord(_))
        ));
        // A magic prefix cut short by a crash is an empty segment.
        std::fs::write(&alien, &SEGMENT_MAGIC[..3]).unwrap();
        let stats = replay_segment(&alien, |_| panic!("no records")).unwrap();
        assert_eq!(stats.records_replayed, 0);
        assert_eq!(stats.torn_bytes, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
