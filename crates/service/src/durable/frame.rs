//! On-disk frame format shared by the WAL and checkpoints: length-prefixed,
//! CRC-checksummed records over a compact binary payload codec.
//!
//! # Frame layout
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────┐
//! │ len: u32  │ crc: u32  │ payload (len b)  │   all integers little-endian
//! └───────────┴───────────┴──────────────────┘
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload bytes (hand-rolled table-based
//! implementation — no new dependencies). A frame whose declared length
//! runs past the end of the file, or whose checksum does not match, is a
//! *torn tail*: recovery truncates it instead of failing.
//!
//! # Payload codec
//!
//! [`Enc`]/[`Dec`] write and read fixed-width little-endian integers,
//! length-prefixed UTF-8 strings, and `f64`s **by bit pattern**
//! ([`f64::to_bits`]): the store's contract is bit-identical state across
//! apply vs rebuild, so the durable format must round-trip every float
//! exactly (the text instance format in `wgrap_core::io` does not).

use crate::store::Update;
use wgrap_core::prelude::Instance;
use wgrap_core::topic::TopicVector;

/// Frames larger than this are treated as corruption, not allocation
/// requests: a torn length prefix must never make recovery try to read
/// gigabytes.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 30;

/// Bytes of frame overhead ahead of the payload (`len` + `crc`).
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the polynomial used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Wrap `payload` in a `len | crc | payload` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN as usize, "frame payload too large");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Try to read one frame starting at `buf[offset..]`. Returns the payload
/// and the offset just past the frame, or `None` if the bytes there do not
/// form a complete, checksum-valid frame (a torn or corrupt tail).
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let header = buf.get(offset..offset.checked_add(FRAME_HEADER_LEN)?)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return None;
    }
    let start = offset + FRAME_HEADER_LEN;
    let payload = buf.get(start..start + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, start + len as usize))
}

/// Append-only payload encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append an optional length-prefixed string (presence flag byte).
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }

    /// Append a topic vector: dimension then every weight by bit pattern.
    pub fn vector(&mut self, v: &TopicVector) {
        self.u32(v.dim() as u32);
        for &w in v.as_slice() {
            self.f64(w);
        }
    }
}

/// Cursor-based payload decoder. Every getter fails (rather than panics)
/// on truncated or malformed input — decode errors bubble up to recovery,
/// which treats them as corruption.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure: what was expected at which payload offset.
pub type DecodeError = String;

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True once every byte has been consumed (decoders require this, so
    /// trailing garbage is corruption, not silently ignored).
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end =
            self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
                format!("payload truncated at byte {} (wanted {} more)", self.pos, n)
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Read an optional string (presence flag byte).
    pub fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            f => Err(format!("invalid option flag {f}")),
        }
    }

    /// Read a topic vector. Weights are validated by
    /// [`TopicVector::new`]'s invariants here (finite, non-negative) so a
    /// corrupt-but-checksummed payload cannot smuggle NaNs into the store.
    pub fn vector(&mut self) -> Result<TopicVector, DecodeError> {
        let dim = self.u32()? as usize;
        if dim > MAX_FRAME_LEN as usize / 8 {
            return Err(format!("vector dimension {dim} exceeds frame bounds"));
        }
        // Reserve no more than the payload can still hold.
        let mut weights = Vec::with_capacity(dim.min((self.buf.len() - self.pos) / 8));
        for _ in 0..dim {
            let w = self.f64()?;
            if !w.is_finite() || w < 0.0 {
                return Err(format!("invalid topic weight {w}"));
            }
            weights.push(w);
        }
        Ok(TopicVector::new(weights))
    }
}

const TAG_ADD_PAPER: u8 = 0;
const TAG_ADD_REVIEWER: u8 = 1;
const TAG_RETIRE_REVIEWER: u8 = 2;
const TAG_PATCH_SCORES: u8 = 3;

/// Encode one WAL record: the epoch the batch published under, then every
/// update of the batch.
pub fn encode_wal_record(epoch: u64, updates: &[Update]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(epoch);
    e.u32(updates.len() as u32);
    for u in updates {
        encode_update(&mut e, u);
    }
    e.into_bytes()
}

/// Decode one WAL record payload back into `(epoch, updates)`.
pub fn decode_wal_record(payload: &[u8]) -> Result<(u64, Vec<Update>), DecodeError> {
    let mut d = Dec::new(payload);
    let epoch = d.u64()?;
    let count = d.u32()? as usize;
    let mut updates = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        updates.push(decode_update(&mut d)?);
    }
    if !d.done() {
        return Err("trailing bytes after WAL record".to_string());
    }
    Ok((epoch, updates))
}

fn encode_update(e: &mut Enc, u: &Update) {
    match u {
        Update::AddPaper { name, topics, coi } => {
            e.u8(TAG_ADD_PAPER);
            e.opt_str(name.as_deref());
            e.vector(topics);
            e.u32(coi.len() as u32);
            for &r in coi {
                e.u32(r);
            }
        }
        Update::AddReviewer { name, expertise } => {
            e.u8(TAG_ADD_REVIEWER);
            e.opt_str(name.as_deref());
            e.vector(expertise);
        }
        Update::RetireReviewer { reviewer } => {
            e.u8(TAG_RETIRE_REVIEWER);
            e.u32(*reviewer);
        }
        Update::PatchScores { reviewer, expertise } => {
            e.u8(TAG_PATCH_SCORES);
            e.u32(*reviewer);
            e.vector(expertise);
        }
    }
}

fn decode_update(d: &mut Dec<'_>) -> Result<Update, DecodeError> {
    match d.u8()? {
        TAG_ADD_PAPER => {
            let name = d.opt_str()?;
            let topics = d.vector()?;
            let n = d.u32()? as usize;
            let mut coi = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                coi.push(d.u32()?);
            }
            Ok(Update::AddPaper { name, topics, coi })
        }
        TAG_ADD_REVIEWER => {
            let name = d.opt_str()?;
            let expertise = d.vector()?;
            Ok(Update::AddReviewer { name, expertise })
        }
        TAG_RETIRE_REVIEWER => Ok(Update::RetireReviewer { reviewer: d.u32()? }),
        TAG_PATCH_SCORES => {
            let reviewer = d.u32()?;
            let expertise = d.vector()?;
            Ok(Update::PatchScores { reviewer, expertise })
        }
        t => Err(format!("unknown update tag {t}")),
    }
}

/// Encode a full instance (the checkpoint body): constraints, every topic
/// vector by bit pattern, explicit display names (preserving whether any
/// were attached at all), and the sorted COI pairs.
pub fn encode_instance(e: &mut Enc, inst: &Instance) {
    e.u64(inst.delta_p() as u64);
    e.u64(inst.delta_r() as u64);
    e.u32(inst.num_papers() as u32);
    for p in inst.papers() {
        e.vector(p);
    }
    e.u32(inst.num_reviewers() as u32);
    for r in inst.reviewers() {
        e.vector(r);
    }
    encode_names(e, inst.paper_names());
    encode_names(e, inst.reviewer_names());
    let pairs = inst.coi_pairs();
    e.u32(pairs.len() as u32);
    for (r, p) in pairs {
        e.u32(r);
        e.u32(p);
    }
}

/// Decode an instance encoded by [`encode_instance`]. Revalidates through
/// [`Instance::new`], so a corrupt-but-checksummed checkpoint cannot build
/// an instance the engine would reject.
pub fn decode_instance(d: &mut Dec<'_>) -> Result<Instance, DecodeError> {
    let delta_p = d.u64()? as usize;
    let delta_r = d.u64()? as usize;
    let np = d.u32()? as usize;
    let mut papers = Vec::with_capacity(np.min(1 << 20));
    for _ in 0..np {
        papers.push(d.vector()?);
    }
    let nr = d.u32()? as usize;
    let mut reviewers = Vec::with_capacity(nr.min(1 << 20));
    for _ in 0..nr {
        reviewers.push(d.vector()?);
    }
    let paper_names = decode_names(d, np)?;
    let reviewer_names = decode_names(d, nr)?;
    let ncoi = d.u32()? as usize;
    let mut coi = Vec::with_capacity(ncoi.min(1 << 20));
    for _ in 0..ncoi {
        let r = d.u32()?;
        let p = d.u32()?;
        coi.push((r, p));
    }
    let mut inst = Instance::new(papers, reviewers, delta_p, delta_r)
        .map_err(|e| format!("checkpoint instance rejected: {e}"))?;
    if let (Some(pn), Some(rn)) = (&paper_names, &reviewer_names) {
        if pn.len() != np || rn.len() != nr {
            return Err("checkpoint name lists mismatch entity counts".to_string());
        }
    }
    match (paper_names, reviewer_names) {
        (Some(pn), Some(rn)) => inst = inst.with_names(pn, rn),
        (None, None) => {}
        // `with_names` attaches both sides at once; one-sided naming is
        // reconstructed by materialising the other side's defaults, exactly
        // as `Instance::attach_name` does live.
        (Some(pn), None) => {
            let rn = (0..nr).map(|r| format!("reviewer-{r}")).collect();
            inst = inst.with_names(pn, rn);
        }
        (None, Some(rn)) => {
            let pn = (0..np).map(|p| format!("paper-{p}")).collect();
            inst = inst.with_names(pn, rn);
        }
    }
    for (r, p) in coi {
        if r as usize >= nr || p as usize >= np {
            return Err(format!("checkpoint COI ({r}, {p}) out of range"));
        }
        inst.add_coi(r as usize, p as usize);
    }
    Ok(inst)
}

fn encode_names(e: &mut Enc, names: Option<&[String]>) {
    match names {
        Some(ns) => {
            e.u8(1);
            e.u32(ns.len() as u32);
            for n in ns {
                e.str(n);
            }
        }
        None => e.u8(0),
    }
}

fn decode_names(d: &mut Dec<'_>, expect: usize) -> Result<Option<Vec<String>>, DecodeError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let n = d.u32()? as usize;
            if n != expect {
                return Err(format!("name list length {n} != entity count {expect}"));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(d.str()?);
            }
            Ok(Some(out))
        }
        f => Err(format!("invalid names flag {f}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let frame = encode_frame(b"hello wal");
        let (payload, next) = decode_frame(&frame, 0).unwrap();
        assert_eq!(payload, b"hello wal");
        assert_eq!(next, frame.len());
        // Any truncation short of the full frame is rejected.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], 0).is_none(), "cut at {cut}");
        }
        // A flipped payload bit fails the checksum.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(decode_frame(&bad, 0).is_none());
        // An absurd length prefix is corruption, not an allocation.
        let mut huge = frame;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&huge, 0).is_none());
    }

    /// Regression: an offset near `usize::MAX` overflowed the header range
    /// (a panic under overflow checks) instead of reading as no frame.
    #[test]
    fn offsets_past_the_end_are_no_frame() {
        let frame = encode_frame(b"x");
        for offset in [frame.len(), frame.len() + 1, usize::MAX - 3, usize::MAX] {
            assert!(decode_frame(&frame, offset).is_none(), "offset {offset}");
        }
    }

    #[test]
    fn wal_record_roundtrip_bitexact() {
        let updates = vec![
            Update::AddPaper {
                name: Some("p".into()),
                topics: TopicVector::new(vec![0.1, 0.0, 0.3]),
                coi: vec![2, 5],
            },
            Update::AddReviewer {
                name: None,
                expertise: TopicVector::new(vec![1.0 / 3.0, 0.2, 0.0]),
            },
            Update::RetireReviewer { reviewer: 7 },
            Update::PatchScores { reviewer: 1, expertise: TopicVector::new(vec![0.0, 0.9, 0.7]) },
        ];
        let payload = encode_wal_record(42, &updates);
        let (epoch, got) = decode_wal_record(&payload).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(got.len(), updates.len());
        for (g, w) in got.iter().zip(&updates) {
            match (g, w) {
                (
                    Update::AddPaper { name: gn, topics: gt, coi: gc },
                    Update::AddPaper { name: wn, topics: wt, coi: wc },
                ) => {
                    assert_eq!(gn, wn);
                    assert_eq!(gc, wc);
                    assert_bits_eq(gt, wt);
                }
                (
                    Update::AddReviewer { name: gn, expertise: ge },
                    Update::AddReviewer { name: wn, expertise: we },
                ) => {
                    assert_eq!(gn, wn);
                    assert_bits_eq(ge, we);
                }
                (
                    Update::RetireReviewer { reviewer: gr },
                    Update::RetireReviewer { reviewer: wr },
                ) => assert_eq!(gr, wr),
                (
                    Update::PatchScores { reviewer: gr, expertise: ge },
                    Update::PatchScores { reviewer: wr, expertise: we },
                ) => {
                    assert_eq!(gr, wr);
                    assert_bits_eq(ge, we);
                }
                _ => panic!("update variant changed across roundtrip"),
            }
        }
    }

    fn assert_bits_eq(a: &TopicVector, b: &TopicVector) {
        assert_eq!(a.dim(), b.dim());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn instance_roundtrip_preserves_names_cois_and_bits() {
        let mut inst = Instance::new(
            vec![TopicVector::new(vec![0.5, 0.5]), TopicVector::new(vec![0.1, 0.9])],
            vec![
                TopicVector::new(vec![0.3, 0.7]),
                TopicVector::new(vec![1.0 / 7.0, 0.0]),
                TopicVector::new(vec![0.0, 0.0]),
            ],
            1,
            1,
        )
        .unwrap()
        .with_names(vec!["a".into(), "b".into()], vec!["x".into(), "y".into(), "z".into()]);
        inst.add_coi(2, 0);
        inst.add_coi(0, 1);

        let mut e = Enc::new();
        encode_instance(&mut e, &inst);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let got = decode_instance(&mut d).unwrap();
        assert!(d.done());

        assert_eq!(got.num_papers(), 2);
        assert_eq!(got.num_reviewers(), 3);
        assert_eq!(got.delta_p(), 1);
        assert_eq!(got.delta_r(), 1);
        for p in 0..2 {
            assert_bits_eq(got.paper(p), inst.paper(p));
            assert_eq!(got.paper_name(p), inst.paper_name(p));
        }
        for r in 0..3 {
            assert_bits_eq(got.reviewer(r), inst.reviewer(r));
            assert_eq!(got.reviewer_name(r), inst.reviewer_name(r));
        }
        assert_eq!(got.coi_pairs(), inst.coi_pairs());

        // An unnamed instance stays unnamed (the flag round-trips).
        let plain = Instance::new(
            vec![TopicVector::new(vec![1.0])],
            vec![TopicVector::new(vec![1.0])],
            1,
            1,
        )
        .unwrap();
        let mut e = Enc::new();
        encode_instance(&mut e, &plain);
        let bytes = e.into_bytes();
        let got = decode_instance(&mut Dec::new(&bytes)).unwrap();
        assert!(got.paper_names().is_none());
        assert!(got.reviewer_names().is_none());
    }
}
