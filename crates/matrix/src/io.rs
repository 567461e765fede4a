//! Ensemble I/O: the dense textual (0,1)-matrix format used by examples and
//! the experiment harness, plus the versioned compact binary **wire format**
//! used by the serving layer (`c1p-engine` / `c1pd`).
//!
//! # Text format
//!
//! One row per line, characters `0`/`1`; spaces, tabs and commas between
//! entries are ignored, `#` starts a comment line, blank lines are skipped.
//! Parsing is hardened for untrusted input: every malformed shape (garbage
//! characters, embedded NUL, ragged rows, separator-only lines, absurdly
//! long single lines) returns a structured [`EnsembleError`] carrying the
//! 1-based line number — never a panic.
//!
//! # Wire format (version 1)
//!
//! A little-endian, varint-based CSR encoding (see DESIGN.md §8 for the
//! byte-level spec):
//!
//! ```text
//! header   := magic "C1PW" | version u8 | kind u8 (0 = ensemble, 1 = verdict)
//! varint   := LEB128, 64-bit, max 10 bytes
//! ensemble := header | n_atoms | n_cols | col*
//! col      := len | first_atom | (gap-1)*          -- strictly ascending
//! verdict  := header | 1 | order_len | atom*        -- accept: witness order
//!           | header | 2 | family u8 | k | atoms | cols   -- reject: Tucker
//! ```
//!
//! Sorted atom lists are delta-encoded (first value, then `gap - 1` per
//! successor), so decoded columns are strictly ascending *by construction*;
//! range validation is delegated to [`Ensemble::from_sorted_columns`].
//! Decoding bounds-checks every field against the remaining payload before
//! allocating, and rejects trailing bytes, so a hostile peer can neither
//! panic the decoder nor make it over-allocate.

use crate::ensemble::{Atom, Ensemble, EnsembleError, Matrix01};
use crate::tucker::TuckerFamily;

/// Upper bound on a single input line for [`parse_matrix`] (64 MiB). A
/// dense row of that width is far beyond every workload in this workspace;
/// the guard turns a 100 MB single-line input into a structured error
/// instead of a byte-by-byte scan of hostile garbage.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Parses a dense matrix. Rows = atoms, columns = ensemble columns.
///
/// ```
/// let m = c1p_matrix::io::parse_matrix("110\n011\n").unwrap();
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.n_cols(), 3);
/// ```
pub fn parse_matrix(text: &str) -> Result<Matrix01, EnsembleError> {
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let mut width: Option<usize> = None;
    for (ln, line) in text.lines().enumerate() {
        if line.len() > MAX_LINE_BYTES {
            return Err(EnsembleError::Parse {
                line: ln + 1,
                message: format!(
                    "line is {} bytes, over the {MAX_LINE_BYTES}-byte limit",
                    line.len()
                ),
            });
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row = Vec::with_capacity(line.len());
        for ch in line.chars() {
            match ch {
                '0' => row.push(0),
                '1' => row.push(1),
                ' ' | '\t' | ',' => {}
                other => {
                    return Err(EnsembleError::Parse {
                        line: ln + 1,
                        message: format!("unexpected character {other:?}"),
                    })
                }
            }
        }
        if row.is_empty() {
            return Err(EnsembleError::Parse {
                line: ln + 1,
                message: "line contains separators but no matrix entries".to_string(),
            });
        }
        match width {
            None => width = Some(row.len()),
            Some(w) if w != row.len() => {
                return Err(EnsembleError::Parse {
                    line: ln + 1,
                    message: format!("row has {} entries, expected {w}", row.len()),
                })
            }
            Some(_) => {}
        }
        rows.push(row);
    }
    Matrix01::from_rows(&rows)
}

/// Parses a dense matrix directly into an ensemble.
pub fn parse_ensemble(text: &str) -> Result<Ensemble, EnsembleError> {
    Ok(parse_matrix(text)?.to_ensemble())
}

/// The running example of the paper's Fig. 2: the 8×7 matrix (rows 1–8,
/// columns a–g) used to illustrate the GAP conditions and the merge. In our
/// convention its 8 rows are the atoms and its 7 columns are the ensemble
/// columns.
pub fn fig2_matrix() -> Ensemble {
    // Verbatim from the paper (Fig. 2), rows 1,2,7,8,3,4,5,6 as printed:
    //   1: 1000100     a,e
    //   2: 1001100     a,d,e
    //   7: 0010011     c,f,g
    //   8: 0010001     c,g
    //   3: 1001101     a,d,e,g
    //   4: 0100101     b,e,g
    //   5: 0110101     b,c,e,g
    //   6: 0010111     c,e,f,g
    // Atom numbering follows the printed row order 1,2,7,8,3,4,5,6 → 0..7.
    parse_ensemble(
        "1000100\n\
         1001100\n\
         0010011\n\
         0010001\n\
         1001101\n\
         0100101\n\
         0110101\n\
         0010111\n",
    )
    .expect("fig2 matrix is well-formed")
}

// ---------------------------------------------------------------------
// binary wire format
// ---------------------------------------------------------------------

/// Magic prefix of every wire message.
pub const WIRE_MAGIC: [u8; 4] = *b"C1PW";

/// Current wire format version; bumped on any layout change so a peer
/// running an older build fails with a structured error, not garbage.
pub const WIRE_VERSION: u8 = 1;

const KIND_ENSEMBLE: u8 = 0;
const KIND_VERDICT: u8 = 1;

const VERDICT_ACCEPT: u8 = 1;
const VERDICT_REJECT: u8 = 2;

/// A solve result in wire form: the accept side carries the witness atom
/// order, the reject side the Tucker-certificate coordinates (family plus
/// the submatrix's atom rows and column ids, both sorted ascending).
///
/// This is deliberately a *matrix-level* type: `c1p-engine` converts its
/// richer verdicts (which also carry the solver's rejection evidence) down
/// to this, and clients re-verify with `c1p_cert::verify_witness` without
/// trusting the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerdict {
    /// C1P: a witness order of the atoms (checkable with
    /// [`crate::verify_linear`]).
    Accept {
        /// The witness atom order.
        order: Vec<Atom>,
    },
    /// Not C1P: a Tucker submatrix certificate.
    Reject {
        /// The claimed obstruction family.
        family: TuckerFamily,
        /// Sorted atom rows of the witness submatrix.
        atom_rows: Vec<Atom>,
        /// Sorted column ids of the witness submatrix.
        column_ids: Vec<u32>,
    },
}

/// Encodes an ensemble in the compact CSR wire form.
pub fn encode_ensemble(ens: &Ensemble) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 2 * ens.n_columns() + ens.p());
    put_header(&mut out, KIND_ENSEMBLE);
    put_varint(ens.n_atoms() as u64, &mut out);
    put_varint(ens.n_columns() as u64, &mut out);
    for col in ens.columns() {
        put_varint(col.len() as u64, &mut out);
        put_sorted(col, &mut out);
    }
    out
}

/// Decodes an ensemble; the exact inverse of [`encode_ensemble`].
///
/// Never panics on malformed input: every structural defect (bad magic,
/// unknown version, truncated varint, over-declared sizes, out-of-range
/// atoms, trailing bytes) returns a structured [`EnsembleError`].
pub fn decode_ensemble(buf: &[u8]) -> Result<Ensemble, EnsembleError> {
    let mut r = Reader::new(buf);
    r.expect_header(KIND_ENSEMBLE)?;
    let n_atoms = r.bounded_varint(u32::MAX as u64, "n_atoms")? as usize;
    let n_cols = r.bounded_varint(r.remaining() as u64, "column count")? as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let len = r.bounded_varint(r.remaining() as u64, "column length")? as usize;
        cols.push(r.sorted_list(len)?);
    }
    r.expect_end()?;
    Ensemble::from_sorted_columns(n_atoms, cols)
}

/// Encodes a verdict in wire form.
///
/// # Panics
///
/// If a reject's `atom_rows`/`column_ids` are not strictly ascending (the
/// documented [`WireVerdict`] contract) — failing loudly beats silently
/// emitting a corrupt encoding.
pub fn encode_verdict(v: &WireVerdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_header(&mut out, KIND_VERDICT);
    match v {
        WireVerdict::Accept { order } => {
            out.push(VERDICT_ACCEPT);
            put_varint(order.len() as u64, &mut out);
            for &a in order {
                put_varint(a as u64, &mut out);
            }
        }
        WireVerdict::Reject { family, atom_rows, column_ids } => {
            out.push(VERDICT_REJECT);
            let (tag, k) = family_tag(*family);
            out.push(tag);
            put_varint(k as u64, &mut out);
            put_varint(atom_rows.len() as u64, &mut out);
            put_sorted(atom_rows, &mut out);
            put_varint(column_ids.len() as u64, &mut out);
            put_sorted(column_ids, &mut out);
        }
    }
    out
}

/// Decodes a verdict; the exact inverse of [`encode_verdict`]. Same
/// never-panics contract as [`decode_ensemble`].
pub fn decode_verdict(buf: &[u8]) -> Result<WireVerdict, EnsembleError> {
    let mut r = Reader::new(buf);
    r.expect_header(KIND_VERDICT)?;
    let verdict = match r.u8("verdict tag")? {
        VERDICT_ACCEPT => {
            let len = r.bounded_varint(r.remaining() as u64, "order length")? as usize;
            let mut order = Vec::with_capacity(len);
            for _ in 0..len {
                order.push(r.bounded_varint(u32::MAX as u64, "order atom")? as Atom);
            }
            WireVerdict::Accept { order }
        }
        VERDICT_REJECT => {
            let tag = r.u8("family tag")?;
            let k = r.bounded_varint(u32::MAX as u64, "family parameter")? as usize;
            let family = family_from_tag(tag, k)
                .ok_or_else(|| r.err(format!("unknown Tucker family tag {tag}")))?;
            let len = r.bounded_varint(r.remaining() as u64, "atom row count")? as usize;
            let atom_rows = r.sorted_list(len)?;
            let len = r.bounded_varint(r.remaining() as u64, "column id count")? as usize;
            let column_ids = r.sorted_list(len)?;
            WireVerdict::Reject { family, atom_rows, column_ids }
        }
        other => return Err(r.err(format!("unknown verdict tag {other}")).into()),
    };
    r.expect_end()?;
    Ok(verdict)
}

// ---------------------------------------------------------------------
// checksummed record framing (write-ahead logs, snapshots)
// ---------------------------------------------------------------------

/// FNV-1a over a byte slice — the workspace's standing integrity hash
/// (the incremental session stream hash folds with the same constants).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a framed record failed to parse — the distinction durability code
/// keys recovery decisions on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends before the record completes. In an append-only
    /// file this can only be the physical tail (a torn final write): the
    /// safe response is to truncate it away, never to guess at it.
    Torn,
    /// The record is structurally complete but its checksum does not
    /// match: damage, not a torn append. The safe response is to
    /// quarantine the container, not to trust anything after it.
    Corrupt {
        /// Byte offset of the failing record in the scanned buffer.
        offset: usize,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Torn => write!(f, "record torn at the buffer tail"),
            RecordError::Corrupt { offset } => {
                write!(f, "record checksum mismatch at offset {offset}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Frames one payload as a checksummed record:
/// `len u32 LE | payload | aux u64 LE | crc u64 LE`, where `crc` is
/// [`fnv1a`] over everything before it. The `aux` word rides inside the
/// checksum — the WAL stores the post-push session stream hash there, so
/// a record binds both *what* was appended and the state it produced.
pub fn append_record(out: &mut Vec<u8>, payload: &[u8], aux: u64) {
    let start = out.len();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&aux.to_le_bytes());
    let crc = fnv1a(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A record parsed back out of a buffer by [`split_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// The framed payload bytes.
    pub payload: &'a [u8],
    /// The auxiliary word (the WAL's post-push stream hash).
    pub aux: u64,
    /// Bytes this record occupied, prefix through checksum.
    pub consumed: usize,
}

/// Parses the record at `offset` in `buf`; the exact inverse of one
/// [`append_record`] call. Distinguishes a torn tail (buffer ends before
/// the record completes — also the classification when a complete-looking
/// final record fails its checksum, since a torn page-aligned append can
/// zero-fill rather than shorten) from mid-buffer corruption (checksum
/// mismatch with more data after it). An `offset` at or past the end of
/// `buf` is a torn tail too. Never panics, never allocates.
pub fn split_record(buf: &[u8], offset: usize) -> Result<Record<'_>, RecordError> {
    let rest = buf.get(offset..).ok_or(RecordError::Torn)?;
    let mut r = Reader::new(rest);
    // every field the reader cannot finish ends past the buffer: torn
    let torn = |_: ReadError| RecordError::Torn;
    let len = r.u32_le("record length").map_err(torn)? as usize;
    let payload = r.take(len, "record payload").map_err(torn)?;
    let aux = r.u64_le("record aux word").map_err(torn)?;
    let covered = r.pos();
    let crc = r.u64_le("record checksum").map_err(torn)?;
    if fnv1a(&rest[..covered]) != crc {
        // checksum failure exactly at the buffer tail is indistinguishable
        // from a torn final append; anywhere else it is damage
        if r.remaining() == 0 {
            return Err(RecordError::Torn);
        }
        return Err(RecordError::Corrupt { offset });
    }
    Ok(Record { payload, aux, consumed: r.pos() })
}

fn family_tag(f: TuckerFamily) -> (u8, usize) {
    match f {
        TuckerFamily::MI(k) => (0, k),
        TuckerFamily::MII(k) => (1, k),
        TuckerFamily::MIII(k) => (2, k),
        TuckerFamily::MIV => (3, 0),
        TuckerFamily::MV => (4, 0),
    }
}

fn family_from_tag(tag: u8, k: usize) -> Option<TuckerFamily> {
    match tag {
        0 => Some(TuckerFamily::MI(k)),
        1 => Some(TuckerFamily::MII(k)),
        2 => Some(TuckerFamily::MIII(k)),
        3 => Some(TuckerFamily::MIV),
        4 => Some(TuckerFamily::MV),
        _ => None,
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
}

/// LEB128 unsigned varint.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Delta-encodes a strictly ascending `u32` list: first value verbatim,
/// then `gap - 1` per successor. Panics (in every build profile) on a
/// non-ascending list — a wrapped subtraction would silently emit a
/// corrupt encoding, which is strictly worse than failing loudly at the
/// encode site.
fn put_sorted(xs: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for (i, &x) in xs.iter().enumerate() {
        if i == 0 {
            put_varint(x as u64, out);
        } else {
            let gap = (x as u64)
                .checked_sub(prev + 1)
                .expect("wire encoding requires a strictly ascending list");
            put_varint(gap, out);
        }
        prev = x as u64;
    }
}

/// Why a [`Reader`] stopped: the byte offset and what went wrong there.
/// Each format maps it into its own error type ([`EnsembleError::Wire`]
/// here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Byte offset into the slice the reader was made over.
    pub offset: usize,
    /// What went wrong.
    pub kind: ReadErrorKind,
}

/// The three ways a [`Reader`] read fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// The slice ends before the named field.
    Truncated(&'static str),
    /// This many bytes follow the last field.
    Trailing(usize),
    /// A field holds a value the format does not allow.
    Invalid(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = self.offset;
        match &self.kind {
            ReadErrorKind::Truncated(what) => write!(f, "{what} at byte {at} runs past the end"),
            ReadErrorKind::Trailing(n) => write!(f, "{n} trailing bytes at byte {at}"),
            ReadErrorKind::Invalid(message) => write!(f, "{message} at byte {at}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for EnsembleError {
    fn from(e: ReadError) -> Self {
        let message = match e.kind {
            ReadErrorKind::Truncated(what) => format!("truncated before {what}"),
            ReadErrorKind::Trailing(n) => format!("{n} trailing bytes after payload"),
            ReadErrorKind::Invalid(message) => message,
        };
        EnsembleError::Wire { offset: e.offset, message }
    }
}

/// The one bounds-checked cursor over untrusted bytes: wire ensembles
/// and verdicts, `c1pd` frame payloads, cache snapshots, WAL headers and
/// checksummed records all decode through it. No read panics or reads
/// past the slice, and every error carries the offset it stopped at.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err(&self, message: String) -> ReadError {
        ReadError { offset: self.pos, kind: ReadErrorKind::Invalid(message) }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ReadError> {
        let Some(end) = self.pos.checked_add(n).filter(|&end| end <= self.buf.len()) else {
            return Err(ReadError { offset: self.pos, kind: ReadErrorKind::Truncated(what) });
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Everything not yet read (possibly nothing).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ReadError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(ReadError { offset: self.pos, kind: ReadErrorKind::Truncated(what) });
        };
        self.pos += 1;
        Ok(b)
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self, what: &'static str) -> Result<u32, ReadError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, what: &'static str) -> Result<u64, ReadError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ReadError> {
        let s = self.take(N, what)?;
        Ok(s.try_into().expect("take returns exactly N bytes"))
    }

    fn expect_header(&mut self, kind: u8) -> Result<(), ReadError> {
        if self.buf.len() < 6 {
            return Err(self.err("payload shorter than the 6-byte header".to_string()));
        }
        if self.buf[..4] != WIRE_MAGIC {
            return Err(self.err(format!("bad magic {:?}", &self.buf[..4])));
        }
        self.pos = 4;
        let version = self.u8("version")?;
        if version != WIRE_VERSION {
            return Err(self.err(format!("unsupported wire version {version}")));
        }
        let k = self.u8("kind")?;
        if k != kind {
            return Err(self.err(format!("wrong message kind {k}, expected {kind}")));
        }
        Ok(())
    }

    /// An LEB128 varint of at most 10 bytes (64 bits).
    fn varint(&mut self, what: &'static str) -> Result<u64, ReadError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let b = self.u8(what)?;
            let bits = (b & 0x7f) as u64;
            if shift == 9 && b > 1 {
                return Err(self.err(format!("varint overflow in {what}")));
            }
            v |= bits << (7 * shift);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("loop returns within 10 bytes")
    }

    /// A varint that also acts as a size/field guard: values above `max`
    /// are structural errors (e.g. a declared element count larger than
    /// the remaining payload could possibly encode — each element takes
    /// at least one byte — which would otherwise drive a huge
    /// preallocation from a tiny hostile message).
    fn bounded_varint(&mut self, max: u64, what: &'static str) -> Result<u64, ReadError> {
        let at = self.pos;
        let v = self.varint(what)?;
        if v > max {
            let message = format!("{what} {v} exceeds limit {max}");
            return Err(ReadError { offset: at, kind: ReadErrorKind::Invalid(message) });
        }
        Ok(v)
    }

    /// Decodes `len` delta-encoded values into a strictly ascending list.
    fn sorted_list(&mut self, len: usize) -> Result<Vec<u32>, ReadError> {
        let mut xs = Vec::with_capacity(len);
        let mut prev = 0u64;
        for i in 0..len {
            let d = self.varint("delta-encoded value")?;
            // prev < 2^32 (checked below), but d can be any u64 on hostile
            // input — the reconstruction must not overflow
            let v = if i == 0 {
                d
            } else {
                (prev + 1)
                    .checked_add(d)
                    .ok_or_else(|| self.err(format!("delta {d} overflows the value")))?
            };
            if v > u32::MAX as u64 {
                return Err(self.err(format!("value {v} overflows u32")));
            }
            xs.push(v as u32);
            prev = v;
        }
        Ok(xs)
    }

    /// Fails with the count of unread bytes unless every byte was read.
    pub fn expect_end(&self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ReadError { offset: self.pos, kind: ReadErrorKind::Trailing(n) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let text = "101\n010\n111\n";
        let m = parse_matrix(text).unwrap();
        assert_eq!(m.to_string(), text);
    }

    #[test]
    fn parse_skips_comments_and_spacing() {
        let m = parse_matrix("# header\n1 0 1\n\n0,1,1\n").unwrap();
        assert_eq!(m.to_string(), "101\n011\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_matrix("10x1\n").is_err());
    }

    #[test]
    fn parse_rejects_ragged_with_line_number() {
        let err = parse_matrix("101\n10\n").unwrap_err();
        assert_eq!(
            err,
            EnsembleError::Parse { line: 2, message: "row has 2 entries, expected 3".into() }
        );
    }

    #[test]
    fn parse_rejects_separator_only_lines() {
        let err = parse_matrix("11\n , ,\n11\n").unwrap_err();
        assert!(matches!(err, EnsembleError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn fig2_shape() {
        let ens = fig2_matrix();
        assert_eq!(ens.n_atoms(), 8);
        assert_eq!(ens.n_columns(), 7);
        assert_eq!(ens.p(), 25);
    }

    #[test]
    fn wire_round_trips_fig2_and_text() {
        let ens = fig2_matrix();
        let bytes = encode_ensemble(&ens);
        assert_eq!(decode_ensemble(&bytes).unwrap(), ens);
        // consistency with the dense text format
        let reparsed = parse_ensemble(&ens.to_matrix().to_string()).unwrap();
        assert_eq!(decode_ensemble(&encode_ensemble(&reparsed)).unwrap(), ens);
    }

    #[test]
    fn wire_round_trips_edge_shapes() {
        for ens in [
            Ensemble::new(0),
            Ensemble::new(5),
            Ensemble::from_columns(3, vec![vec![], vec![0, 1, 2], vec![2]]).unwrap(),
            Ensemble::from_columns(1, vec![vec![0], vec![0]]).unwrap(),
        ] {
            let bytes = encode_ensemble(&ens);
            assert_eq!(decode_ensemble(&bytes).unwrap(), ens, "{ens:?}");
        }
    }

    #[test]
    fn wire_verdict_round_trips() {
        for v in [
            WireVerdict::Accept { order: vec![2, 0, 1, 3] },
            WireVerdict::Accept { order: vec![] },
            WireVerdict::Reject {
                family: TuckerFamily::MIII(2),
                atom_rows: vec![1, 4, 9, 10, 11],
                column_ids: vec![0, 7, 8, 30],
            },
            WireVerdict::Reject { family: TuckerFamily::MV, atom_rows: vec![], column_ids: vec![] },
        ] {
            assert_eq!(decode_verdict(&encode_verdict(&v)).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn wire_rejects_malformed_headers() {
        let ens = fig2_matrix();
        let good = encode_ensemble(&ens);
        // short, bad magic, bad version, wrong kind
        assert!(matches!(decode_ensemble(&[]), Err(EnsembleError::Wire { .. })));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_ensemble(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(decode_ensemble(&bad).is_err());
        assert!(decode_ensemble(&encode_verdict(&WireVerdict::Accept { order: vec![] })).is_err());
    }

    #[test]
    fn wire_rejects_overdeclared_sizes_and_trailing_bytes() {
        // header claiming 2^30 columns in a 10-byte message must fail on the
        // bound check, not attempt the allocation
        let mut bad = Vec::new();
        put_header(&mut bad, KIND_ENSEMBLE);
        put_varint(8, &mut bad);
        put_varint(1 << 30, &mut bad);
        let err = decode_ensemble(&bad).unwrap_err();
        assert!(matches!(err, EnsembleError::Wire { .. }), "{err}");
        // trailing garbage after a valid payload
        let mut bad = encode_ensemble(&fig2_matrix());
        bad.push(0);
        assert!(decode_ensemble(&bad).is_err());
    }

    #[test]
    fn wire_rejects_overflowing_deltas_without_panicking() {
        // hostile 10-byte LEB128 delta of u64::MAX after a first value of 0:
        // reconstruction must error, not overflow (debug) or wrap (release)
        let mut bad = Vec::new();
        put_header(&mut bad, KIND_ENSEMBLE);
        put_varint(1, &mut bad); // n_atoms
        put_varint(1, &mut bad); // n_cols
        put_varint(2, &mut bad); // column length
        put_varint(0, &mut bad); // first atom
        put_varint(u64::MAX, &mut bad); // delta
        let err = decode_ensemble(&bad).unwrap_err();
        assert!(matches!(err, EnsembleError::Wire { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn encoding_a_non_ascending_witness_panics_loudly() {
        encode_verdict(&WireVerdict::Reject {
            family: TuckerFamily::MV,
            atom_rows: vec![0, 1],
            column_ids: vec![5, 3],
        });
    }

    #[test]
    fn record_framing_round_trips_and_classifies_failures() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"first", 0xAA);
        append_record(&mut buf, b"", 0xBB);
        append_record(&mut buf, b"third-record", 0xCC);
        let mut at = 0;
        let mut seen = Vec::new();
        while at < buf.len() {
            let r = split_record(&buf, at).unwrap();
            seen.push((r.payload.to_vec(), r.aux));
            at += r.consumed;
        }
        assert_eq!(
            seen,
            vec![(b"first".to_vec(), 0xAA), (Vec::new(), 0xBB), (b"third-record".to_vec(), 0xCC)]
        );
        // every strict prefix of the final record is Torn
        let tail_start = buf.len() - (12 + 20);
        for cut in tail_start..buf.len() {
            assert_eq!(split_record(&buf[..cut], tail_start), Err(RecordError::Torn), "cut {cut}");
        }
        // a bit flip mid-buffer (records follow) is Corrupt with offset
        let mut bad = buf.clone();
        bad[6] ^= 0x40;
        assert_eq!(split_record(&bad, 0), Err(RecordError::Corrupt { offset: 0 }));
        // the same flip in the *final* record reads as a torn tail
        let mut bad = buf.clone();
        bad[tail_start + 6] ^= 0x40;
        assert_eq!(split_record(&bad, tail_start), Err(RecordError::Torn));
        // a hostile length cannot overflow the bound check
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 32]);
        assert_eq!(split_record(&hostile, 0), Err(RecordError::Torn));
        // an offset past the end of the buffer is torn, not a panic
        assert_eq!(split_record(&buf, buf.len() + 1), Err(RecordError::Torn));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a test vectors (64-bit)
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn wire_rejects_out_of_range_atoms() {
        // column {0,5} in a 3-atom ensemble: delta decode succeeds, range
        // validation in from_sorted_columns must reject
        let mut bad = Vec::new();
        put_header(&mut bad, KIND_ENSEMBLE);
        put_varint(3, &mut bad);
        put_varint(1, &mut bad);
        put_varint(2, &mut bad);
        put_sorted(&[0, 5], &mut bad);
        assert_eq!(
            decode_ensemble(&bad).unwrap_err(),
            EnsembleError::AtomOutOfRange { column: 0, atom: 5 }
        );
    }
}
