//! The bytes of one shard's log file, and the only code that knows them.
//!
//! A shard's log is one append-only file, `<root>/shard-NNNN.log`, for its
//! whole life: an 8-byte magic header followed by batch frames in the order
//! they were acknowledged, so a view's events replay in that order. Each
//! frame is a little-endian `u32` body length, a CRC-32 of the body, then
//! the body:
//!
//! ```text
//! ┌──────────┬──────────┬────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ body (len bytes)               │
//! └──────────┴──────────┴────────────────────────────────┘
//! body  = [kind: u8 = 4][count: u32][entry; count]
//! entry = [user: u32][timestamp: u64][payload len: u32][payload]
//! ```
//!
//! The batch is the only frame kind: one or more events committed together
//! under one checksum, so a crash mid-write tears the *whole* batch, never
//! a prefix of it. A crash can cut the file at any byte: a short frame, an
//! impossible length or a checksum mismatch all mean "the log ends here"
//! (a torn tail). A whole, checksummed frame with a malformed body — a kind
//! other than 4 (kinds 1–3, single event, snapshot and tombstone, are
//! retired), a zero or wrong count, inconsistent inner lengths — cannot
//! come from a crash and is [`Error::CorruptRecord`].
//!
//! A writer accumulates acknowledged events straight into one reusable
//! [`Batch`] and seals its length, checksum and count in place at commit
//! time: no per-commit re-encoding, no intermediate allocations. The sealed
//! frame goes to the file in one positioned write ([`Segment::append`]);
//! the fsync is `sync_shard`'s in `sharded.rs`, on [`Segment::handle`].
//!
//! An entry's file offset is fixed when it is encoded — the segment's length
//! plus its offset in the open frame, where the frame will be written — so a
//! reader can come back for one entry: [`decode_entry`] decodes it from the
//! open frame or from a positioned read ([`Segment::read_at`]). Such a read
//! does not re-verify the frame's checksum, which replay or the commit
//! already did; it checks the entry's user and length instead.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use dynasore_types::{Error, Event, Result, SimTime, UserId};

use crate::log::RecoveryStats;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"DYNASEG1";

/// Upper bound on a frame body. A header announcing more is a torn tail (a
/// partially written length prefix can decode to garbage), so no writer may
/// build a larger one.
pub(crate) const MAX_RECORD_BYTES: usize = 1 << 24;

/// Bytes of the frame header (length prefix + checksum).
const HEADER_BYTES: usize = 8;

/// Bytes of an entry before its payload: user, timestamp, payload length.
const ENTRY_HEADER_BYTES: u64 = 16;

/// The batch frame's kind byte.
const KIND_BATCH: u8 = 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`: the checksum over
/// every frame body. Every commit runs it over a frame of up to a megabyte,
/// and replay runs it again over every frame read back, so it is
/// slicing-by-8 — eight table lookups per 8 input bytes instead of one per
/// byte — which is severalfold faster than the classic byte-at-a-time loop
/// while computing the identical checksum.
fn crc32(bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
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
            t[0][i] = c;
            i += 1;
        }
        let mut n = 1;
        while n < 8 {
            let mut i = 0;
            while i < 256 {
                t[n][i] = (t[n - 1][i] >> 8) ^ t[0][(t[n - 1][i] & 0xFF) as usize];
                i += 1;
            }
            n += 1;
        }
        t
    }
    static TABLES: [[u32; 256]; 8] = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An open batch frame: acknowledged events encoded into one buffer whose
/// header and count [`seal`](Batch::seal) patches in place. The buffer
/// keeps its capacity across [`clear`](Batch::clear)s, so a steady stream
/// of commits allocates nothing.
#[derive(Debug)]
pub(crate) struct Batch {
    frame: Vec<u8>,
    records: u32,
}

impl Default for Batch {
    fn default() -> Self {
        let mut batch = Batch {
            frame: Vec::new(),
            records: 0,
        };
        batch.clear();
        batch
    }
}

impl Batch {
    /// Empties the batch: the header and the entry count are placeholders
    /// until [`seal`](Batch::seal).
    pub(crate) fn clear(&mut self) {
        self.frame.clear();
        self.frame.extend_from_slice(&[0; HEADER_BYTES]);
        self.frame.push(KIND_BATCH);
        self.frame.extend_from_slice(&[0; 4]);
        self.records = 0;
    }

    /// Events in the batch.
    pub(crate) fn records(&self) -> u32 {
        self.records
    }

    /// Bytes of the frame body so far.
    pub(crate) fn body_len(&self) -> usize {
        self.frame.len() - HEADER_BYTES
    }

    /// Appends one event entry, copying the payload exactly once, and
    /// returns the entry's offset in the frame: where the frame is written,
    /// plus this, is where the entry lies in the file. On error the batch is
    /// untouched, so the caller can commit the batch built so far and retry
    /// in a fresh one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the entry would push the body past
    /// [`MAX_RECORD_BYTES`]: an unreplayable frame must never be started.
    pub(crate) fn push(
        &mut self,
        user: UserId,
        timestamp: SimTime,
        payload: &[u8],
    ) -> Result<usize> {
        let body_len = self.body_len() + ENTRY_HEADER_BYTES as usize + payload.len();
        if body_len > MAX_RECORD_BYTES {
            return Err(Error::invalid_config(format!(
                "batch body of {body_len} bytes would exceed the {MAX_RECORD_BYTES}-byte \
                 frame cap"
            )));
        }
        let at = self.frame.len();
        self.frame.extend_from_slice(&user.index().to_le_bytes());
        self.frame
            .extend_from_slice(&timestamp.as_secs().to_le_bytes());
        self.frame
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(payload);
        self.records += 1;
        Ok(at)
    }

    /// The `len` bytes at offset `at` of the frame, or `None` past its end.
    pub(crate) fn bytes(&self, at: usize, len: usize) -> Option<&[u8]> {
        self.frame.get(at..at.checked_add(len)?)
    }

    /// Patches the entry count, the body length and the checksum in place
    /// and returns the whole frame, ready to be appended to the log.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty batch: a frame of zero events
    /// is writer corruption on replay, so it must never be written.
    pub(crate) fn seal(&mut self) -> Result<&[u8]> {
        if self.records == 0 {
            return Err(Error::invalid_config(
                "a batch record must hold at least one event",
            ));
        }
        let (header, body) = self.frame.split_at_mut(HEADER_BYTES);
        body[1..5].copy_from_slice(&self.records.to_le_bytes());
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(body).to_le_bytes());
        Ok(&self.frame)
    }
}

/// Reads `n` bytes off the front of a checksummed `body`: running out means
/// the writer was buggy, which is [`Error::CorruptRecord`].
fn take<'a>(body: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if body.len() < n {
        return Err(Error::CorruptRecord(format!(
            "body too short: wanted {n} bytes, {} left",
            body.len()
        )));
    }
    let (head, rest) = body.split_at(n);
    *body = rest;
    Ok(head)
}

fn take_u32(body: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(take(body, 4)?.try_into().unwrap()))
}

/// One event entry, decoded in place: the payload borrows the bytes it was
/// read from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'a> {
    /// Where the entry starts in the log file.
    pub offset: u64,
    pub user: UserId,
    pub timestamp: SimTime,
    pub payload: &'a [u8],
}

impl Entry<'_> {
    /// The entry as an event that owns its payload.
    pub(crate) fn to_event(self) -> Event {
        Event::new(self.user, self.timestamp, self.payload.to_vec())
    }
}

/// Bytes an entry with a `payload_len`-byte payload takes in the log.
pub(crate) fn entry_len(payload_len: u32) -> u64 {
    ENTRY_HEADER_BYTES + u64::from(payload_len)
}

/// Reads the entry at the front of `body`, which lies at `offset` in the
/// file, and advances `body` past it.
fn take_entry<'a>(body: &mut &'a [u8], offset: u64) -> Result<Entry<'a>> {
    let user = UserId::new(take_u32(body)?);
    let secs = u64::from_le_bytes(take(body, 8)?.try_into().unwrap());
    let payload_len = take_u32(body)? as usize;
    let payload = take(body, payload_len)?;
    Ok(Entry {
        offset,
        user,
        timestamp: SimTime::from_secs(secs),
        payload,
    })
}

/// Decodes the entry at the front of `bytes`, read back from `offset`
/// where an index put `user`'s entry of `payload_len` payload bytes, and
/// advances `bytes` past it.
///
/// # Errors
///
/// [`Error::CorruptRecord`] when the bytes there are not that entry: its
/// user or payload length differ, or it runs past `bytes`.
pub(crate) fn decode_entry(
    bytes: &mut &[u8],
    offset: u64,
    user: UserId,
    payload_len: u32,
) -> Result<Event> {
    let entry = take_entry(bytes, offset).map_err(|e| {
        Error::CorruptRecord(format!("entry of user {user} at offset {offset}: {e}"))
    })?;
    if entry.user != user || entry.payload.len() != payload_len as usize {
        return Err(Error::CorruptRecord(format!(
            "offset {offset} holds an entry of user {} with {} payload bytes, \
             not user {user}'s entry of {payload_len}",
            entry.user,
            entry.payload.len()
        )));
    }
    Ok(entry.to_event())
}

/// Reads the next batch frame off `reader`, which is at `offset` in the
/// file, through `buf`, and decodes it.
///
/// Returns `Ok(Some((entries, frame_len)))` for a whole frame — its entries
/// in acknowledgement order, borrowing `buf` — and `Ok(None)` for a torn
/// tail: too few bytes for a frame, an impossible length, or a checksum
/// mismatch, all of which a crash mid-write produces and replay treats as
/// the end of the log.
///
/// # Errors
///
/// I/O errors, and [`Error::CorruptRecord`] when the checksum is valid but
/// the body is malformed: the frame was written whole, so this is writer
/// corruption, not a crash.
fn read_frame<'b>(
    reader: &mut impl Read,
    buf: &'b mut Vec<u8>,
    offset: u64,
) -> Result<Option<(Vec<Entry<'b>>, u64)>> {
    buf.clear();
    reader.by_ref().take(HEADER_BYTES as u64).read_to_end(buf)?;
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..].try_into().unwrap());
    if len == 0 || len > MAX_RECORD_BYTES {
        return Ok(None);
    }
    buf.clear();
    reader.by_ref().take(len as u64).read_to_end(buf)?;
    if buf.len() < len || crc32(buf) != crc {
        return Ok(None);
    }
    let mut body = &buf[..];
    let kind = take(&mut body, 1)?[0];
    if kind != KIND_BATCH {
        return Err(Error::CorruptRecord(format!("unknown record kind {kind}")));
    }
    let count = take_u32(&mut body)?;
    if count == 0 {
        return Err(Error::CorruptRecord(
            "batch record with zero entries".into(),
        ));
    }
    let body_end = offset + (HEADER_BYTES + len) as u64;
    let mut entries = Vec::with_capacity((count as usize).min(1024));
    for _ in 0..count {
        let at = body_end - body.len() as u64;
        entries.push(take_entry(&mut body, at)?);
    }
    if !body.is_empty() {
        return Err(Error::CorruptRecord(format!(
            "{} trailing bytes after record body",
            body.len()
        )));
    }
    Ok(Some((entries, (HEADER_BYTES + len) as u64)))
}

/// Fsyncs the directory that holds `path`, making a new entry there (a
/// file, a subdirectory, a rename) survive a machine crash: fsyncing a new
/// file does not persist its name.
pub(crate) fn sync_parent(path: &Path) -> Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Reads every valid frame of the segment at `path` in order, invoking
/// `apply` with each entry of each frame, and reports what the replay
/// measured: `bytes_replayed` is the valid prefix (magic header plus whole
/// frames), the length a reopen truncates the file to. A torn tail (crash
/// truncation) ends the replay silently; a structurally corrupt frame (valid
/// checksum, malformed body) is an error. A missing file — a shard whose root
/// crashed after its manifest was written but before the shard file was
/// created — replays as an empty log. Frames stream through one reusable
/// buffer, so replay holds one at most.
pub(crate) fn replay_segment(
    path: &Path,
    mut apply: impl FnMut(Entry<'_>),
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
            let offset = replay.bytes_replayed;
            let decoded = read_frame(&mut reader, &mut frame, offset).map_err(|e| match e {
                Error::CorruptRecord(detail) => {
                    Error::CorruptRecord(format!("{} at offset {offset}: {detail}", path.display()))
                }
                other => other,
            })?;
            let Some((entries, frame_len)) = decoded else {
                break; // The end of the log, or a torn tail.
            };
            entries.into_iter().for_each(&mut apply);
            replay.records_replayed += 1;
            replay.bytes_replayed += frame_len;
        }
    }
    replay.torn_bytes = len - replay.bytes_replayed;
    Ok(replay)
}

/// What a live shard file does, and all that a [`Segment`] asks of it:
/// positioned writes and reads, and fsync. [`File`] is the one product
/// implementation; the store's tests put a faulty one in its place.
pub(crate) trait ShardFile: std::fmt::Debug + Send + Sync {
    fn write_all_at(&self, bytes: &[u8], offset: u64) -> std::io::Result<()>;
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
    fn sync_all(&self) -> std::io::Result<()>;
}

impl ShardFile for File {
    fn write_all_at(&self, bytes: &[u8], offset: u64) -> std::io::Result<()> {
        FileExt::write_all_at(self, bytes, offset)
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }

    fn sync_all(&self) -> std::io::Result<()> {
        File::sync_all(self)
    }
}

/// The writable side of one segment file. A commit is one positioned write
/// of a sealed frame at [`len`](Segment::len): there is no buffer between a
/// commit and the operating system, and `len` moves only once the write has
/// succeeded, so a commit retried after a failed or short write overwrites
/// its partial bytes instead of landing after them.
#[derive(Debug)]
pub(crate) struct Segment {
    /// The open file, shared (see [`handle`](Segment::handle)).
    pub(crate) file: Arc<dyn ShardFile>,
    /// Bytes in the file: the magic header and every committed frame.
    len: u64,
}

impl Segment {
    /// Opens the segment file at `path` for appending after its first
    /// `valid_len` bytes, truncating the rest (crash repair: the torn tail
    /// is physically removed so new frames follow the last whole one). A
    /// missing file is created and the directory that holds it fsynced, so
    /// the new entry is durable. A file shorter than the magic header — a
    /// new one, or one whose header a crash tore — gets the header, so it
    /// stays a valid, empty segment.
    pub fn open(path: &Path, valid_len: u64) -> Result<Segment> {
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        let file = if path.exists() {
            options.open(path)?
        } else {
            let file = options.create_new(true).open(path)?;
            sync_parent(path)?;
            file
        };
        file.set_len(valid_len)?;
        let magic_len = SEGMENT_MAGIC.len() as u64;
        if valid_len < magic_len {
            FileExt::write_all_at(&file, SEGMENT_MAGIC, 0)?;
        }
        Ok(Segment {
            file: Arc::new(file),
            len: valid_len.max(magic_len),
        })
    }

    /// Length in bytes: the magic header and every committed frame.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Writes a sealed frame at the end of the log, in one positioned write.
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Fills `buf` from the committed bytes at `offset`, in one positioned
    /// read.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptRecord`] for a range that reaches past the committed
    /// frames; I/O errors.
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        if offset.saturating_add(buf.len() as u64) > self.len {
            return Err(Error::CorruptRecord(format!(
                "{} bytes at offset {offset} reach past the {} committed",
                buf.len(),
                self.len
            )));
        }
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    /// The open file itself, shared. Fsyncing it covers every frame
    /// appended so far, so a caller can make the segment durable without
    /// holding whatever lock guards it.
    pub fn handle(&self) -> Arc<dyn ShardFile> {
        Arc::clone(&self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// One batch frame holding `events`, built by the store's own encoder.
    fn frame(events: &[(u32, u64, &[u8])]) -> Vec<u8> {
        let mut batch = Batch::default();
        for &(user, secs, payload) in events {
            batch
                .push(UserId::new(user), SimTime::from_secs(secs), payload)
                .unwrap();
        }
        batch.seal().unwrap().to_vec()
    }

    /// The one-event frame of [`event`]`(user, t)`.
    fn event_frame(user: u32, t: u64) -> Vec<u8> {
        frame(&[(user, t, &[user as u8; 5])])
    }

    /// A frame around a hand-built `body`, with a valid checksum.
    fn checksummed(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    /// Decodes the frame at the start of `bytes`.
    fn decode(bytes: &[u8]) -> Result<Option<(Vec<Event>, u64)>> {
        let mut buf = Vec::new();
        let decoded = read_frame(&mut &bytes[..], &mut buf, 0)?;
        Ok(decoded.map(|(entries, len)| (entries.into_iter().map(Entry::to_event).collect(), len)))
    }

    fn sample_batches() -> Vec<Vec<(u32, u64, &'static [u8])>> {
        vec![
            vec![(7, 3, b"hello")],
            vec![(1, 4, b"x"), (2, 5, b""), (1, 6, b"yz")],
            vec![(0, 0, b"")],
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_matches_bitwise_reference_at_every_alignment() {
        // Canonical bit-at-a-time CRC-32: the slowest, most obviously
        // correct formulation, checked against the slicing-by-8 fast path.
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        // Lengths 0..=24 cover every chunks_exact remainder; the pattern
        // exercises all byte values.
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for len in 0..=24 {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
        assert_eq!(crc32(&data), bitwise(&data));
    }

    #[test]
    fn records_round_trip() {
        let batches = sample_batches();
        let mut buf = Vec::new();
        for batch in &batches {
            buf.extend_from_slice(&frame(batch));
        }
        let mut decoded = Vec::new();
        let mut offset = 0usize;
        while offset < buf.len() {
            let (events, consumed) = decode(&buf[offset..]).unwrap().expect("valid frame");
            let entries: Vec<(u32, u64, Vec<u8>)> = events
                .iter()
                .map(|e| {
                    (
                        e.author().index(),
                        e.timestamp().as_secs(),
                        e.payload().to_vec(),
                    )
                })
                .collect();
            decoded.push(entries);
            offset += consumed as usize;
        }
        let expected: Vec<Vec<(u32, u64, Vec<u8>)>> = batches
            .iter()
            .map(|b| b.iter().map(|&(u, t, p)| (u, t, p.to_vec())).collect())
            .collect();
        assert_eq!(decoded, expected);
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn every_truncation_is_a_torn_tail() {
        // Whatever prefix of a frame survives, decode must answer "torn",
        // never events and never corruption.
        let one = frame(&[(9, 9, b"payload")]);
        for cut in 0..one.len() {
            assert!(
                decode(&one[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be torn"
            );
        }
        assert!(decode(&one).unwrap().is_some());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let buf = frame(&[(1, 1, b"abcdef"), (2, 2, b"gh")]);
        for i in HEADER_BYTES..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x40;
            assert!(
                decode(&copy).unwrap().is_none(),
                "flip at byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn valid_checksum_with_malformed_body_is_corruption() {
        // Each body below has a correct checksum, so none can come from a
        // crash — only from a buggy writer.
        let corrupt =
            |body: &[u8]| matches!(decode(&checksummed(body)), Err(Error::CorruptRecord(_)));
        let whole = frame(&[(1, 1, b"ab"), (2, 2, b"c")]);
        let body = &whole[HEADER_BYTES..];

        // A kind other than the batch: unknown, or one of the retired kinds
        // (1 event, 2 snapshot, 3 tombstone) no writer emits.
        for kind in [0u8, 1, 2, 3, 5, 42] {
            let mut other = body.to_vec();
            other[0] = kind;
            assert!(corrupt(&other), "kind {kind}");
        }
        // The count promises more entries than the body holds…
        let mut short = body.to_vec();
        short[1..5].copy_from_slice(&3u32.to_le_bytes());
        assert!(corrupt(&short), "count above the entries");
        // …or fewer, leaving the last entry as trailing bytes.
        let mut long = body.to_vec();
        long[1..5].copy_from_slice(&1u32.to_le_bytes());
        assert!(corrupt(&long), "count below the entries");
        // Trailing garbage after the last entry.
        let mut trailing = body.to_vec();
        trailing.push(0xAA);
        assert!(corrupt(&trailing), "trailing bytes");
        // A payload length reaching past the body.
        let mut overlong = body.to_vec();
        overlong[5 + 12..5 + 16].copy_from_slice(&100u32.to_le_bytes());
        assert!(corrupt(&overlong), "payload past the body");
    }

    /// Kinds 1–3 (single event, snapshot, tombstone) are retired: a whole,
    /// checksummed frame in the layout one of them had is writer
    /// corruption, never a torn tail that replay would silently truncate
    /// away. `tests/persistent_log.rs` checks that a root holding one
    /// refuses to open.
    #[test]
    fn retired_record_kinds_decode_as_corrupt() {
        // Well-formed bodies in the layouts the retired kinds had.
        let entry = |body: &mut Vec<u8>| {
            body.extend_from_slice(&7u32.to_le_bytes()); // user
            body.extend_from_slice(&3u64.to_le_bytes()); // timestamp
            body.extend_from_slice(&2u32.to_le_bytes()); // payload length
            body.extend_from_slice(b"hi");
        };
        let mut event = vec![1u8];
        entry(&mut event);
        let mut snapshot = vec![2u8];
        snapshot.extend_from_slice(&7u32.to_le_bytes()); // owner
        snapshot.extend_from_slice(&1u64.to_le_bytes()); // version
        snapshot.extend_from_slice(&128u32.to_le_bytes()); // capacity
        snapshot.extend_from_slice(&1u32.to_le_bytes()); // event count
        entry(&mut snapshot);
        let mut tombstone = vec![3u8];
        tombstone.extend_from_slice(&7u32.to_le_bytes());
        for body in [event, snapshot, tombstone] {
            let decoded = decode(&checksummed(&body));
            assert!(
                matches!(decoded, Err(Error::CorruptRecord(_))),
                "kind {}: {decoded:?}",
                body[0]
            );
        }
    }

    #[test]
    fn incremental_batch_matches_the_record_encoding() {
        // The push/seal encoder lays down exactly the documented frame:
        // [len][crc][kind 4][count][user, timestamp, len, payload]*.
        let mut incremental = Batch::default();
        incremental
            .push(UserId::new(5), SimTime::ZERO, b"stale")
            .unwrap();
        incremental.seal().unwrap();
        incremental.clear(); // clear must drop the sealed frame's content
        for (user, secs, payload) in [(3u32, 10u64, &b"aaa"[..]), (9, 11, b"b")] {
            incremental
                .push(UserId::new(user), SimTime::from_secs(secs), payload)
                .unwrap();
        }
        let body_len = incremental.body_len();
        let sealed = incremental.seal().unwrap();
        assert_eq!(sealed.len(), HEADER_BYTES + body_len);

        let mut body = vec![4u8];
        body.extend_from_slice(&2u32.to_le_bytes());
        for (user, secs, payload) in [(3u32, 10u64, &b"aaa"[..]), (9, 11, b"b")] {
            body.extend_from_slice(&user.to_le_bytes());
            body.extend_from_slice(&secs.to_le_bytes());
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(payload);
        }
        assert_eq!(sealed, checksummed(&body));
    }

    #[test]
    fn torn_batch_is_lost_as_a_unit() {
        // Any truncation inside the batch frame loses *every* entry, even
        // when the bytes of the first entries survived intact: the single
        // checksum covers them all.
        let mut batch = Batch::default();
        for i in 0..4u32 {
            batch
                .push(UserId::new(i), SimTime::from_secs(i as u64), &[i as u8; 20])
                .unwrap();
        }
        let buf = batch.seal().unwrap();
        for cut in 0..buf.len() {
            assert!(
                decode(&buf[..cut]).unwrap().is_none(),
                "a batch truncated to {cut} bytes must decode as torn, not partially"
            );
        }
        let (events, consumed) = decode(buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len() as u64);
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn batch_push_overflow_leaves_the_frame_intact() {
        let mut batch = Batch::default();
        batch.push(UserId::new(1), SimTime::ZERO, b"ok").unwrap();
        let before = batch.frame.clone();
        let err = batch.push(UserId::new(2), SimTime::ZERO, &vec![0u8; MAX_RECORD_BYTES]);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        assert_eq!(
            batch.frame, before,
            "a rejected entry must not dirty the frame"
        );
        assert_eq!(batch.records(), 1);
        // The survivors still seal and decode.
        assert!(decode(batch.seal().unwrap()).unwrap().is_some());
    }

    #[test]
    fn empty_batches_are_rejected_everywhere() {
        assert!(matches!(
            Batch::default().seal(),
            Err(Error::InvalidConfig(_))
        ));
        // A hand-built zero-count batch with a valid checksum is writer
        // corruption, not a torn tail.
        assert!(matches!(
            decode(&checksummed(&[4u8, 0, 0, 0, 0])),
            Err(Error::CorruptRecord(_))
        ));
    }

    #[test]
    fn zero_and_oversized_lengths_are_torn() {
        let mut frame = vec![0u8; 16];
        assert!(decode(&frame).unwrap().is_none()); // len 0
        frame[0..4].copy_from_slice(&((MAX_RECORD_BYTES as u32) + 1).to_le_bytes());
        assert!(decode(&frame).unwrap().is_none());
    }

    #[test]
    fn append_flush_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("shard-0000.log");
        let mut seg = Segment::open(&path, 0).unwrap();
        for t in 0..10u64 {
            seg.append(&event_frame(t as u32, t)).unwrap();
        }
        let mut replayed = Vec::new();
        let stats = replay_segment(&path, |entry| replayed.push(entry.to_event())).unwrap();
        assert_eq!(stats.records_replayed, 10);
        assert_eq!(stats.torn_bytes, 0);
        assert_eq!(stats.bytes_replayed, seg.len());
        assert_eq!(replayed[3], event(3, 3));
        // A file that was never created replays as an empty log.
        let missing = replay_segment(&dir.join("shard-0001.log"), |_| panic!("no records"));
        assert_eq!(missing.unwrap(), RecoveryStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The offset an entry is encoded at, the offset replay reports for it
    /// and the offset a positioned read decodes it from are one number.
    #[test]
    fn entries_are_read_back_where_they_were_encoded() {
        let dir = temp_dir("entry-offsets");
        let path = dir.join("shard-0000.log");
        let mut seg = Segment::open(&path, 0).unwrap();
        let mut encoded = Vec::new();
        for (secs, payloads) in [(1u64, &[&b"ab"[..], b""][..]), (3, &[b"cdef"])] {
            let mut batch = Batch::default();
            for (i, payload) in payloads.iter().enumerate() {
                let user = UserId::new(i as u32 + 1);
                let at = batch.push(user, SimTime::from_secs(secs), payload).unwrap();
                let offset = seg.len() + at as u64;
                let entry_bytes = batch.bytes(at, entry_len(payload.len() as u32) as usize);
                let mut open = entry_bytes.unwrap();
                let from_batch = decode_entry(&mut open, offset, user, payload.len() as u32);
                assert_eq!(from_batch.unwrap().payload(), *payload);
                encoded.push((offset, user, payload.len() as u32));
            }
            seg.append(batch.seal().unwrap()).unwrap();
        }
        let mut replayed = Vec::new();
        replay_segment(&path, |e| {
            replayed.push((e.offset, e.user, e.payload.len() as u32))
        })
        .unwrap();
        assert_eq!(replayed, encoded);
        for (offset, user, payload_len) in encoded {
            let mut buf = vec![0; entry_len(payload_len) as usize];
            seg.read_at(&mut buf, offset).unwrap();
            let event = decode_entry(&mut &buf[..], offset, user, payload_len).unwrap();
            assert_eq!(event.author(), user);
            // The same bytes, expected for another user or of another
            // length, are not that entry.
            let other = UserId::new(user.index() + 1);
            let wrong_user = decode_entry(&mut &buf[..], offset, other, payload_len);
            assert!(matches!(wrong_user, Err(Error::CorruptRecord(_))));
            let wrong_len = decode_entry(&mut &buf[..], offset, user, payload_len + 1);
            assert!(matches!(wrong_len, Err(Error::CorruptRecord(_))));
        }
        // Nothing past the committed frames is read.
        let past = seg.read_at(&mut [0; 4], seg.len() - 2);
        assert!(matches!(past, Err(Error::CorruptRecord(_))), "{past:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repaired_on_reopen() {
        let dir = temp_dir("torn");
        let path = dir.join("shard-0000.log");
        let mut seg = Segment::open(&path, 0).unwrap();
        let first = event_frame(1, 1);
        let first_end = SEGMENT_MAGIC.len() as u64 + first.len() as u64;
        seg.append(&first).unwrap();
        seg.append(&event_frame(2, 2)).unwrap();
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
        let mut seg = Segment::open(&path, stats.bytes_replayed).unwrap();
        seg.append(&event_frame(3, 3)).unwrap();
        let mut replayed = Vec::new();
        let stats = replay_segment(&path, |entry| replayed.push(entry.to_event())).unwrap();
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
        let whole = event_frame(1, 1);
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
