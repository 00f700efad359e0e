//! On-disk encoding of the durable tier's log: batch frames.
//!
//! The file-backed persistent store (`dynasore-store`) writes an append-only
//! log of frames. Each is a little-endian `u32` length, a CRC-32 checksum of
//! the body, then the body itself. A crash can truncate the log at any byte
//! offset; on replay the frame makes the torn tail detectable — a short
//! frame, an impossible length or a checksum mismatch all mean "the log ends
//! here", never a half-applied frame.
//!
//! ```text
//! ┌──────────┬──────────┬────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ body (len bytes)               │
//! └──────────┴──────────┴────────────────────────────────┘
//! body  = [kind: u8 = 4][count: u32][entry; count]
//! entry = [user: u32][timestamp: u64][payload len: u32][payload]
//! ```
//!
//! There is one frame kind, the batch ([`DurableRecord`]): one or more
//! events committed together, the unit every append is written in. Its
//! single checksum covers every entry, so a crash mid-write tears the
//! *whole* batch, never a prefix of it. The kind byte stays 4 so every log
//! an older build wrote still opens; kinds 1–3 (single event, snapshot,
//! tombstone) are retired, and a checksummed frame of one is
//! [`Error::CorruptRecord`] like any other unknown kind.
//!
//! Frames are built *incrementally* with [`DurableRecord::batch_begin`] /
//! [`batch_push`](DurableRecord::batch_push) /
//! [`batch_finish`](DurableRecord::batch_finish) so a writer can accumulate
//! acknowledged events straight into one reusable buffer and patch the
//! length, checksum and count in place at commit time — no per-commit
//! re-encoding, no intermediate allocations.

use crate::{Error, Event, Result, SimTime, UserId};

/// Upper bound on a record body. Frames announcing more than this are treated
/// as torn tails (a partially written length prefix can decode to garbage).
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// Bytes of the frame header (length prefix + checksum).
pub const RECORD_HEADER_BYTES: usize = 8;

/// The batch frame's kind byte.
const KIND_BATCH: u8 = 4;

/// Bytes a batch body spends before the first entry: the kind byte plus the
/// entry count.
const BATCH_PREFIX_BYTES: usize = 5;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// This is the checksum guarding every durable-log record; it is exposed so
/// tests and tooling can validate frames independently. Group commit runs
/// this over megabyte-scale batch frames on every commit (and replay runs
/// it again over every frame read back), so the implementation is
/// slicing-by-8 — eight table lookups per 8 input bytes instead of one per
/// byte — which is severalfold faster than the classic byte-at-a-time loop
/// while computing the identical checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
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

/// The batch frame, the durable log's only record kind: one or more events
/// committed together under a single checksum, so a crash mid-write tears
/// the whole batch and replay applies all of its events or none of them.
///
/// Never constructed: the type names the frame's codec — the incremental
/// encoder [`batch_begin`](DurableRecord::batch_begin) /
/// [`batch_push`](DurableRecord::batch_push) /
/// [`batch_finish`](DurableRecord::batch_finish) and the decoder
/// [`decode`](DurableRecord::decode).
#[derive(Debug)]
pub enum DurableRecord {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a record body during decoding. Every read is bounds-checked:
/// running out of body bytes with a *valid* checksum means the writer was
/// buggy, which decoding reports as [`Error::CorruptRecord`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(Error::CorruptRecord(format!(
                "body too short: wanted {n} bytes at offset {}, body is {} bytes",
                self.pos,
                self.bytes.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::CorruptRecord(format!(
                "{} trailing bytes after record body",
                self.bytes.len() - self.pos
            )))
        }
    }
}

impl DurableRecord {
    /// Attempts to decode one batch frame from the start of `bytes`.
    ///
    /// Returns `Ok(Some((events, consumed)))` for a valid frame — its events
    /// in acknowledgement order — and `Ok(None)` for a *torn tail*: too few
    /// bytes for a frame, an impossible length, or a checksum mismatch, all
    /// of which a crash mid-write legitimately produces and replay treats as
    /// the end of the log.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptRecord`] when the checksum is valid but the
    /// body is malformed (a kind other than the batch, a zero or wrong entry
    /// count, inconsistent inner lengths): the frame was written whole, so
    /// this is writer corruption, not a crash.
    pub fn decode(bytes: &[u8]) -> Result<Option<(Vec<Event>, usize)>> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            return Ok(None);
        }
        let expected_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let Some(body) = bytes.get(RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + len) else {
            return Ok(None);
        };
        if crc32(body) != expected_crc {
            return Ok(None);
        }
        let mut cursor = Cursor {
            bytes: body,
            pos: 0,
        };
        let kind = cursor.u8()?;
        if kind != KIND_BATCH {
            return Err(Error::CorruptRecord(format!("unknown record kind {kind}")));
        }
        let count = cursor.u32()?;
        if count == 0 {
            return Err(Error::CorruptRecord(
                "batch record with zero entries".into(),
            ));
        }
        let mut events = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            let author = UserId::new(cursor.u32()?);
            let timestamp = SimTime::from_secs(cursor.u64()?);
            let payload_len = cursor.u32()? as usize;
            let payload = cursor.take(payload_len)?.to_vec();
            events.push(Event::new(author, timestamp, payload));
        }
        cursor.finish()?;
        Ok(Some((events, RECORD_HEADER_BYTES + len)))
    }

    /// Starts a batch frame in `buf` (clearing it first): the frame header,
    /// the kind byte and the entry count are laid down as placeholders that
    /// [`batch_finish`](DurableRecord::batch_finish) patches in place.
    pub fn batch_begin(buf: &mut Vec<u8>) {
        buf.clear();
        put_u32(buf, 0); // length placeholder
        put_u32(buf, 0); // crc placeholder
        buf.push(KIND_BATCH);
        put_u32(buf, 0); // count placeholder
    }

    /// Appends one event entry to an open batch frame, copying the payload
    /// exactly once. On error `buf` is untouched, so the caller can commit
    /// the batch built so far and retry in a fresh one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the entry would push the batch body past
    /// [`MAX_RECORD_BYTES`] — an unreplayable frame must never be started.
    pub fn batch_push(
        buf: &mut Vec<u8>,
        user: UserId,
        timestamp: SimTime,
        payload: &[u8],
    ) -> Result<()> {
        debug_assert!(
            buf.len() >= RECORD_HEADER_BYTES + BATCH_PREFIX_BYTES,
            "batch_push before batch_begin"
        );
        let entry_len = 16 + payload.len(); // user + timestamp + len + payload
        let body_len = buf.len() - RECORD_HEADER_BYTES + entry_len;
        if body_len > MAX_RECORD_BYTES {
            return Err(Error::invalid_config(format!(
                "batch body of {body_len} bytes would exceed the {MAX_RECORD_BYTES}-byte \
                 frame cap"
            )));
        }
        put_u32(buf, user.index());
        put_u64(buf, timestamp.as_secs());
        put_u32(buf, payload.len() as u32);
        buf.extend_from_slice(payload);
        Ok(())
    }

    /// Seals an open batch frame: patches the entry count, the body length
    /// and the checksum in place, and returns the total frame size. After
    /// this, `buf` holds one complete batch frame ready to be appended to
    /// the log.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty batch (`count` 0): an empty
    /// batch frame is indistinguishable from writer corruption on replay,
    /// so it must never be written.
    pub fn batch_finish(buf: &mut [u8], count: u32) -> Result<usize> {
        if count == 0 {
            return Err(Error::invalid_config(
                "a batch record must hold at least one event",
            ));
        }
        debug_assert!(
            buf.len() >= RECORD_HEADER_BYTES + BATCH_PREFIX_BYTES,
            "batch_finish before batch_begin"
        );
        let count_at = RECORD_HEADER_BYTES + 1;
        buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        let body_len = buf.len() - RECORD_HEADER_BYTES;
        buf[0..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        let crc = crc32(&buf[RECORD_HEADER_BYTES..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One batch frame holding `events`, built by the store's own encoder.
    fn frame(events: &[(u32, u64, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        DurableRecord::batch_begin(&mut buf);
        for &(user, secs, payload) in events {
            DurableRecord::batch_push(
                &mut buf,
                UserId::new(user),
                SimTime::from_secs(secs),
                payload,
            )
            .unwrap();
        }
        DurableRecord::batch_finish(&mut buf, events.len() as u32).unwrap();
        buf
    }

    /// A frame around a hand-built `body`, with a valid checksum.
    fn checksummed(body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
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
            let (events, consumed) = DurableRecord::decode(&buf[offset..])
                .unwrap()
                .expect("valid frame");
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
            offset += consumed;
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
                DurableRecord::decode(&one[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be torn"
            );
        }
        assert!(DurableRecord::decode(&one).unwrap().is_some());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let buf = frame(&[(1, 1, b"abcdef"), (2, 2, b"gh")]);
        for i in RECORD_HEADER_BYTES..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x40;
            assert!(
                DurableRecord::decode(&copy).unwrap().is_none(),
                "flip at byte {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn valid_checksum_with_malformed_body_is_corruption() {
        // Each body below has a correct checksum, so none can come from a
        // crash — only from a buggy writer.
        let corrupt = |body: &[u8]| {
            matches!(
                DurableRecord::decode(&checksummed(body)),
                Err(Error::CorruptRecord(_))
            )
        };
        let whole = frame(&[(1, 1, b"ab"), (2, 2, b"c")]);
        let body = &whole[RECORD_HEADER_BYTES..];

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

    #[test]
    fn incremental_batch_matches_the_record_encoding() {
        // The begin/push/finish encoder lays down exactly the documented
        // frame: [len][crc][kind 4][count][user, timestamp, len, payload]*.
        let mut incremental = vec![0xEE; 7]; // batch_begin must clear stale content
        DurableRecord::batch_begin(&mut incremental);
        for (user, secs, payload) in [(3u32, 10u64, &b"aaa"[..]), (9, 11, b"b")] {
            DurableRecord::batch_push(
                &mut incremental,
                UserId::new(user),
                SimTime::from_secs(secs),
                payload,
            )
            .unwrap();
        }
        let frame_len = DurableRecord::batch_finish(&mut incremental, 2).unwrap();
        assert_eq!(frame_len, incremental.len());

        let mut body = vec![4u8];
        body.extend_from_slice(&2u32.to_le_bytes());
        for (user, secs, payload) in [(3u32, 10u64, &b"aaa"[..]), (9, 11, b"b")] {
            body.extend_from_slice(&user.to_le_bytes());
            body.extend_from_slice(&secs.to_le_bytes());
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(payload);
        }
        assert_eq!(incremental, checksummed(&body));
    }

    #[test]
    fn torn_batch_is_lost_as_a_unit() {
        // Any truncation inside the batch frame loses *every* entry, even
        // when the bytes of the first entries survived intact: the single
        // checksum covers them all.
        let mut buf = Vec::new();
        DurableRecord::batch_begin(&mut buf);
        for i in 0..4u32 {
            DurableRecord::batch_push(
                &mut buf,
                UserId::new(i),
                SimTime::from_secs(i as u64),
                &[i as u8; 20],
            )
            .unwrap();
        }
        DurableRecord::batch_finish(&mut buf, 4).unwrap();
        for cut in 0..buf.len() {
            assert!(
                DurableRecord::decode(&buf[..cut]).unwrap().is_none(),
                "a batch truncated to {cut} bytes must decode as torn, not partially"
            );
        }
        let (events, consumed) = DurableRecord::decode(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn batch_push_overflow_leaves_the_frame_intact() {
        let mut buf = Vec::new();
        DurableRecord::batch_begin(&mut buf);
        DurableRecord::batch_push(&mut buf, UserId::new(1), SimTime::ZERO, b"ok").unwrap();
        let before = buf.clone();
        let err = DurableRecord::batch_push(
            &mut buf,
            UserId::new(2),
            SimTime::ZERO,
            &vec![0u8; MAX_RECORD_BYTES],
        );
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        assert_eq!(buf, before, "a rejected entry must not dirty the frame");
        // The survivors still seal and decode.
        DurableRecord::batch_finish(&mut buf, 1).unwrap();
        assert!(DurableRecord::decode(&buf).unwrap().is_some());
    }

    #[test]
    fn empty_batches_are_rejected_everywhere() {
        let mut buf = Vec::new();
        DurableRecord::batch_begin(&mut buf);
        assert!(matches!(
            DurableRecord::batch_finish(&mut buf, 0),
            Err(Error::InvalidConfig(_))
        ));
        // A hand-built zero-count batch with a valid checksum is writer
        // corruption, not a torn tail.
        assert!(matches!(
            DurableRecord::decode(&checksummed(&[4u8, 0, 0, 0, 0])),
            Err(Error::CorruptRecord(_))
        ));
    }

    #[test]
    fn zero_and_oversized_lengths_are_torn() {
        let mut frame = vec![0u8; 16];
        assert!(DurableRecord::decode(&frame).unwrap().is_none()); // len 0
        frame[0..4].copy_from_slice(&((MAX_RECORD_BYTES as u32) + 1).to_le_bytes());
        assert!(DurableRecord::decode(&frame).unwrap().is_none());
    }
}
