//! Columnar wire format for tuple batches.
//!
//! The paper's abstract channels carry tuples; a real message-passing
//! deployment serializes them. Workers encode every cross-processor batch
//! through this codec so the measured communication cost can be reported
//! in *bytes on the wire*, not just tuple counts — the unit a §8 cost
//! model for a cluster actually charges.
//!
//! The layout is columnar: all values of one tuple position are stored
//! together, so a monotypic column pays one tag byte instead of one per
//! value and integer values compress into LEB128 varints (small ids — the
//! common case for graph workloads — take 1–2 bytes instead of 9).
//!
//! ```text
//! batch     := arity:uv | count:uv | column × arity   (columns only when count > 0)
//! column    := tag:u8 | body
//!   tag 0   Int:      count × sv                  — monotypic Int
//!   tag 1   Sym:      count × uv                  — monotypic Sym
//!   tag 2   Mixed:    count × vtag:u8, then the values in order
//!                     (vtag 0 → sv Int, vtag 1 → uv Sym)
//!   tag 3   IntDelta: first:sv | (count−1) × uv   — nondecreasing Int,
//!                     successive differences
//! uv = unsigned LEB128 varint; sv = zigzag LEB128 varint
//! ```
//!
//! The header does *not* name the destination inbox: payloads are
//! destination-independent so one encoded batch can be multicast to every
//! peer behind an `Arc` (see [`crate::message::Message::Batch`], which
//! carries the inbox out of band).
//!
//! Symbol ids are stable across workers because every processor program
//! shares one interner; a multi-machine deployment would ship the symbol
//! table once up front the same way.
//!
//! Malformed input never panics: every decode failure is a typed
//! [`Error::Runtime`] naming the corruption, so a fault-injected or
//! truncated delivery surfaces as a worker error the coordinator reports.

use gst_common::tuple::INLINE_CAP;
use gst_common::{Error, Result, Tuple, Word};

use crate::message::Payload;

const COL_INT: u8 = 0;
const COL_SYM: u8 = 1;
const COL_MIXED: u8 = 2;
const COL_INT_DELTA: u8 = 3;
const VTAG_INT: u8 = 0;
const VTAG_SYM: u8 = 1;

/// Sanity bound on header fields: no real scheme ships arity-65k tuples
/// or arity-0 batches with more than 65k units. Shared with the stream
/// framing layer ([`crate::wire`]), which applies the same bound to the
/// relation arities it decodes, and with the constraint encoding in
/// `gst-core`, which bounds processor, variable and fragment counts.
pub const IMPLAUSIBLE: usize = 1 << 16;

/// Append `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `n` zigzag-mapped, as a [`put_uv`] varint.
pub fn put_sv(buf: &mut Vec<u8>, n: i64) {
    put_uv(buf, zigzag(n));
}

/// Serialize a batch of `arity`-ary tuples.
///
/// Two batches with the same tuples in the same order encode to the same
/// bytes regardless of destination — the basis of single-encode multicast.
/// The payload is returned at exactly its wire length, so a replay log
/// that retains it holds wire bytes and nothing more.
///
/// # Errors
/// Rejects tuples whose arity differs from `arity` — a misconfigured
/// channel (caught at the sender, where the diagnostic is actionable).
pub fn encode_batch(arity: usize, tuples: &[Tuple]) -> Result<Payload> {
    for t in tuples {
        if t.arity() != arity {
            return Err(Error::Runtime(format!(
                "channel misconfigured: tuple arity {} does not match channel arity {arity}",
                t.arity()
            )));
        }
    }
    let count = tuples.len();
    // A value takes 1–10 varint bytes (plus a tag in a Mixed column);
    // reserve 3, which the small ids of the generated workloads fit, and
    // give back what the batch did not use once it is written.
    let mut buf = Vec::with_capacity(4 + count * arity * 3);
    put_uv(&mut buf, arity as u64);
    put_uv(&mut buf, count as u64);
    for c in 0..if count == 0 { 0 } else { arity } {
        encode_column(&mut buf, tuples, c);
    }
    buf.shrink_to_fit();
    Ok(Payload::new(buf))
}

/// Write column `c` as the first of IntDelta, Int, Sym and Mixed that
/// its values allow.
fn encode_column(buf: &mut Vec<u8>, tuples: &[Tuple], c: usize) {
    let words = tuples.iter().map(|t| t.word(c));
    let syms = words.clone().filter(|&(_, sym)| sym).count();
    let put_value = |buf: &mut Vec<u8>, (word, sym): Word| match sym {
        true => put_uv(buf, word),
        false => put_sv(buf, word as i64),
    };
    if syms == 0 {
        let ints = words.clone().map(|(word, _)| word as i64);
        if tuples.len() >= 2 && ints.clone().zip(ints.clone().skip(1)).all(|(a, b)| a <= b) {
            buf.push(COL_INT_DELTA);
            let mut prev = None;
            for n in ints {
                match prev {
                    None => put_sv(buf, n),
                    // Nondecreasing ⇒ the true difference fits in u64.
                    Some(p) => put_uv(buf, n.wrapping_sub(p) as u64),
                }
                prev = Some(n);
            }
            return;
        }
        buf.push(COL_INT);
    } else if syms == tuples.len() {
        buf.push(COL_SYM);
    } else {
        buf.push(COL_MIXED);
        buf.extend(words.clone().map(|(_, sym)| if sym { VTAG_SYM } else { VTAG_INT }));
    }
    words.for_each(|word| put_value(buf, word));
}

/// A bounds-checked varint reader over a byte slice: truncation and
/// overlong varints yield `None`, never a panic. Shared with the
/// stream-framing layer ([`crate::wire`]), which extends the same
/// discipline to whole frames, and with the constraint encoding in
/// `gst-core`.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// One byte; `None` at the end.
    pub fn get_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// A length-prefixed byte run (`len:uv | bytes`), borrowed from the
    /// underlying slice; `None` on truncation.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_uv()? as usize;
        if self.remaining() < len {
            return None;
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Some(slice)
    }

    /// LEB128; `None` on truncation or an encoding longer than 10 bytes /
    /// overflowing 64 bits (an adversarial stream must terminate).
    pub fn get_uv(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in 0..10 {
            let byte = self.get_u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 9 && bits > 1 {
                return None; // would overflow the 64th bit
            }
            value |= bits << (shift * 7);
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    /// A [`put_sv`] varint; `None` as for [`Cursor::get_uv`].
    pub fn get_sv(&mut self) -> Option<i64> {
        self.get_uv().map(unzigzag)
    }
}

/// A length-prefixed byte run for [`Cursor::get_bytes`].
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_uv(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// The batch header `(arity, count)`, read without decoding the body —
/// lets a receiver account tuples (termination detection, stats, traces)
/// before the deferred decode-and-inject pass runs.
///
/// # Errors
/// Returns [`Error::Runtime`] if the header is truncated or implausible.
pub fn peek_batch(bytes: &[u8]) -> Result<(usize, usize)> {
    let mut cur = Cursor::new(bytes);
    let (arity, count) = read_header(&mut cur)?;
    Ok((arity, count))
}

fn corrupt(what: &str) -> Error {
    Error::Runtime(format!("corrupt tuple batch: {what}"))
}

fn read_header(cur: &mut Cursor<'_>) -> Result<(usize, usize)> {
    let arity = cur
        .get_uv()
        .ok_or_else(|| corrupt("truncated header (arity)"))? as usize;
    if arity > IMPLAUSIBLE {
        return Err(corrupt("implausible arity"));
    }
    let count = cur
        .get_uv()
        .ok_or_else(|| corrupt("truncated header (count)"))? as usize;
    Ok((arity, count))
}

/// Open a batch for reading: the header, checked against the payload's
/// size, and a cursor at the first column (there are `arity` columns when
/// `count > 0`, none otherwise).
fn open_batch(bytes: &[u8]) -> Result<(Cursor<'_>, usize, usize)> {
    let mut cur = Cursor::new(bytes);
    let (arity, count) = read_header(&mut cur)?;
    if arity == 0 && count > IMPLAUSIBLE {
        return Err(corrupt("implausible arity-0 tuple count"));
    }
    if arity > 0 && count > 0 {
        // Every column costs at least one tag byte plus one byte per
        // value, so a lying count cannot force a huge allocation: it is
        // rejected before any buffer is sized from it.
        let min_needed = count
            .checked_add(1)
            .and_then(|per_col| per_col.checked_mul(arity))
            .ok_or_else(|| corrupt("implausible tuple count"))?;
        if cur.remaining() < min_needed {
            return Err(corrupt("tuple count implausible for payload size"));
        }
    }
    Ok((cur, arity, count))
}

/// Deserialize a batch, appending its tuples to `out` — the zero-copy
/// receive path: the transport hands the destination's pending buffer
/// directly, so decoded tuples land where the engine will drain them
/// without an intermediate `Vec`. Returns the tuple count.
///
/// # Errors
/// Returns [`Error::Runtime`] (never panics) for truncated or overlong
/// varints, unknown column tags, implausible counts, or trailing bytes.
/// On error `out` is untouched (columns decode into scratch first).
pub fn decode_batch_into(bytes: &[u8], out: &mut Vec<Tuple>) -> Result<usize> {
    let (mut cur, arity, count) = open_batch(bytes)?;
    let columns = if count == 0 { 0 } else { arity };
    // Column-major scratch of untagged words: column c occupies
    // words[c*count .. (c+1)*count], typed by kinds[c].
    let mut words: Vec<u64> = Vec::with_capacity(columns * count);
    let mut kinds: Vec<ColumnKind> = Vec::with_capacity(columns);
    for _ in 0..columns {
        kinds.push(read_column(&mut cur, count, |w| words.push(w))?);
    }
    if cur.remaining() > 0 {
        return Err(corrupt("trailing bytes"));
    }
    // Every column is validated, so `out` is touched only from here on.
    let is_sym = |c: usize, r: usize| match kinds[c] {
        ColumnKind::Int => false,
        ColumnKind::Sym => true,
        ColumnKind::Mixed { vtags } => bytes[vtags + r] == VTAG_SYM,
    };
    if arity > INLINE_CAP {
        let rows: Vec<u64> = (0..count * arity).map(|k| words[k % arity * count + k / arity]).collect();
        let wide = rows.chunks_exact(arity).enumerate();
        out.extend(wide.map(|(r, row)| Tuple::from_words(row, |c| is_sym(c, r))));
        return Ok(count);
    }
    // The type mask is fixed by the monotypic columns; only a Mixed
    // column's bit is read per row. A column past `arity` reads as 0.
    let fixed = (0..columns).fold(0u8, |m, c| m | u8::from(matches!(kinds[c], ColumnKind::Sym)) << c);
    let mixed: Vec<usize> = (0..columns).filter(|&c| matches!(kinds[c], ColumnKind::Mixed { .. })).collect();
    let word = |c: usize, r: usize| words.get(c * count + r).copied().unwrap_or(0);
    out.extend((0..count).map(|r| {
        let syms = mixed.iter().fold(fixed, |m, &c| m | u8::from(is_sym(c, r)) << c);
        Tuple::from_parts(arity, syms, std::array::from_fn(|c| word(c, r)))
    }));
    Ok(count)
}

/// What types the decoded words of one column.
#[derive(Clone, Copy)]
enum ColumnKind {
    Int,
    Sym,
    /// Row `r` is typed by the (already validated) value tag at payload
    /// offset `vtags + r`.
    Mixed { vtags: usize },
}

/// Read one column, handing each value's untagged word (an `Int`'s
/// two's-complement bits, a `Sym`'s id) to `sink` in row order.
fn read_column(cur: &mut Cursor<'_>, count: usize, mut sink: impl FnMut(u64)) -> Result<ColumnKind> {
    let sym_word = |v: u64| {
        u32::try_from(v)
            .map(u64::from)
            .map_err(|_| corrupt("symbol id overflows u32"))
    };
    match cur.get_u8() {
        None => Err(corrupt("truncated column tag")),
        Some(COL_INT) => {
            for _ in 0..count {
                let n = cur.get_sv().ok_or_else(|| corrupt("truncated Int column"))?;
                sink(n as u64);
            }
            Ok(ColumnKind::Int)
        }
        Some(COL_SYM) => {
            for _ in 0..count {
                let v = cur.get_uv().ok_or_else(|| corrupt("truncated Sym column"))?;
                sink(sym_word(v)?);
            }
            Ok(ColumnKind::Sym)
        }
        Some(COL_INT_DELTA) => {
            let mut prev = cur
                .get_sv()
                .ok_or_else(|| corrupt("truncated delta column"))?;
            sink(prev as u64);
            for _ in 0..count - 1 {
                let d = cur
                    .get_uv()
                    .ok_or_else(|| corrupt("truncated delta column"))?;
                prev = prev.wrapping_add(d as i64);
                sink(prev as u64);
            }
            Ok(ColumnKind::Int)
        }
        Some(COL_MIXED) => {
            let vtags = cur.pos;
            if cur.remaining() < count {
                return Err(corrupt("truncated tag run"));
            }
            cur.pos += count;
            for k in 0..count {
                sink(match cur.bytes[vtags + k] {
                    VTAG_INT => cur
                        .get_sv()
                        .ok_or_else(|| corrupt("truncated mixed Int value"))?
                        as u64,
                    VTAG_SYM => sym_word(
                        cur.get_uv()
                            .ok_or_else(|| corrupt("truncated mixed Sym value"))?,
                    )?,
                    tag => return Err(corrupt(&format!("unknown value tag {tag}"))),
                });
            }
            Ok(ColumnKind::Mixed { vtags })
        }
        Some(tag) => Err(corrupt(&format!("unknown column tag {tag}"))),
    }
}

/// Walk a batch payload end to end without materializing a single tuple:
/// header, every column tag, every varint, and the no-trailing-bytes
/// invariant — exactly the checks [`decode_batch_into`] performs, minus
/// the allocation. Returns `(arity, count)`.
///
/// This is the relay's admission check: a frame can be structurally
/// complete at the framing layer yet carry a corrupted body (a fault that
/// overwrites a stream's tail cuts exactly this shape), and corruption
/// must be charged to the *sender's* link, not delivered to a receiver
/// whose deferred decode would treat it as its own fatal error.
///
/// # Errors
/// Returns [`Error::Runtime`] (never panics) on any malformed input.
pub fn validate_batch(bytes: &[u8]) -> Result<(usize, usize)> {
    let (mut cur, arity, count) = open_batch(bytes)?;
    for _ in 0..if count == 0 { 0 } else { arity } {
        read_column(&mut cur, count, |_| ())?;
    }
    if cur.remaining() > 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok((arity, count))
}

/// Deserialize a batch; the inverse of [`encode_batch`].
///
/// # Errors
/// Returns [`Error::Runtime`] (never panics) on any malformed input.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    decode_batch_into(bytes, &mut tuples)?;
    Ok(tuples)
}

/// The bytes a naive row-oriented codec (1 tag + 8 payload per value plus
/// a 10-byte header — the previous wire format) would have spent on this
/// batch; the reference point of the journal's compression ratio.
pub fn row_format_bytes(arity: usize, count: usize) -> u64 {
    10 + (count as u64) * (arity as u64) * 9
}

#[cfg(test)]
mod tests {
    use super::*;
    use gst_common::{ituple, Interner, SmallRng, SymbolId, Value};

    #[test]
    fn round_trips_int_tuples() {
        let tuples = vec![ituple![1, -2], ituple![i64::MAX, i64::MIN]];
        let bytes = encode_batch(2, &tuples).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), tuples);
    }

    #[test]
    fn round_trips_symbols_and_mixed() {
        let interner = Interner::new();
        let a = interner.intern("alice");
        let tuples = vec![
            Tuple::new(&[Value::Sym(a), Value::Int(7)]),
            Tuple::new(&[Value::Int(0), Value::Sym(SymbolId(0))]),
        ];
        let bytes = encode_batch(2, &tuples).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), tuples);
    }

    #[test]
    fn empty_batch_and_zero_arity() {
        let bytes = encode_batch(0, &[Tuple::unit()]).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), vec![Tuple::unit()]);

        let bytes = encode_batch(3, &[]).unwrap();
        assert!(decode_batch(&bytes).unwrap().is_empty());
        assert_eq!(peek_batch(&bytes).unwrap(), (3, 0));
    }

    #[test]
    fn small_ints_pack_into_single_bytes() {
        // 10 arity-2 tuples of small values: 2 header bytes + 2 columns ×
        // (1 tag + 10 one-byte varints) ≪ the 190 bytes of the old row
        // format. The first column is constant hence delta-encoded.
        let tuples: Vec<Tuple> = (0..10).map(|k| ituple![5, k - 3]).collect();
        let bytes = encode_batch(2, &tuples).unwrap();
        assert!(
            bytes.len() <= 2 + 2 * (1 + 10),
            "columnar varints should stay tiny, got {}",
            bytes.len()
        );
        assert!((bytes.len() as u64) < row_format_bytes(2, 10) / 4);
        assert_eq!(decode_batch(&bytes).unwrap(), tuples);
    }

    #[test]
    fn sorted_columns_delta_encode() {
        // A strictly increasing column of large values: deltas are 1, so
        // the column body is one varint per value after the first.
        let tuples: Vec<Tuple> = (0..100).map(|k| ituple![1_000_000 + k]).collect();
        let bytes = encode_batch(1, &tuples).unwrap();
        // header ≤ 3 + tag 1 + first ≤ 4 + 99 one-byte deltas.
        assert!(bytes.len() <= 3 + 1 + 4 + 99, "got {}", bytes.len());
        assert_eq!(decode_batch(&bytes).unwrap(), tuples);
    }

    #[test]
    fn delta_encoding_survives_extreme_span() {
        let tuples = vec![ituple![i64::MIN], ituple![-1], ituple![0], ituple![i64::MAX]];
        let bytes = encode_batch(1, &tuples).unwrap();
        assert_eq!(decode_batch(&bytes).unwrap(), tuples);
    }

    #[test]
    fn peek_matches_decode() {
        let tuples = vec![ituple![9, 9], ituple![8, 7]];
        let bytes = encode_batch(2, &tuples).unwrap();
        assert_eq!(peek_batch(&bytes).unwrap(), (2, 2));
        let mut out = Vec::new();
        assert_eq!(decode_batch_into(&bytes, &mut out).unwrap(), 2);
        assert_eq!(out, tuples);
    }

    #[test]
    fn encoding_is_destination_independent_and_deterministic() {
        let tuples = vec![ituple![3, 1], ituple![4, 1], ituple![5, 9]];
        let a = encode_batch(2, &tuples).unwrap();
        let b = encode_batch(2, &tuples).unwrap();
        assert_eq!(*a, *b, "same tuples, same bytes — multicast-safe");
    }

    #[test]
    fn arity_mismatch_rejected_at_sender() {
        let err = encode_batch(2, &[ituple![1]]).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)), "typed error, not a panic");
        assert!(err.to_string().contains("arity"));
    }

    /// Every malformed-input class yields a typed `Error::Runtime` naming
    /// the corruption — never a panic, never a silent partial decode.
    #[test]
    fn corrupt_input_is_rejected_with_typed_errors() {
        // Empty input.
        let err = decode_batch(&[]).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));
        assert!(err.to_string().contains("truncated header"));

        // Arity varint present, count missing.
        let err = decode_batch(&[2]).unwrap_err();
        assert!(err.to_string().contains("truncated header (count)"));

        // Unknown column tag.
        let good = encode_batch(1, &[ituple![5]]).unwrap();
        let mut bad = good.to_vec();
        bad[2] = 9;
        let err = decode_batch(&bad).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));
        assert!(err.to_string().contains("unknown column tag 9"));

        // Count promises tuples the payload does not contain.
        let empty = encode_batch(1, &[]).unwrap();
        let mut lying = empty.to_vec();
        lying[1] = 2; // count 0 → 2, no column bytes follow
        let err = decode_batch(&lying).unwrap_err();
        assert!(err.to_string().contains("implausible"));

        // Trailing garbage.
        let mut extended = good.to_vec();
        extended.push(0);
        let err = decode_batch(&extended).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"));

        // A varint that never terminates (10 continuation bytes).
        let err = decode_batch(&[0x80; 12]).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));

        // Mixed column with a bad per-value tag.
        let interner = Interner::new();
        let s = interner.intern("x");
        let mixed =
            encode_batch(1, &[ituple![1], Tuple::new(&[Value::Sym(s)])]).unwrap();
        let mut bad_vtag = mixed.to_vec();
        bad_vtag[3] = 7; // first entry of the tag run
        let err = decode_batch(&bad_vtag).unwrap_err();
        assert!(err.to_string().contains("unknown value tag 7"));
    }

    /// An adversarial count field must not cause a huge preallocation or
    /// a panic — just a typed error.
    #[test]
    fn huge_count_is_rejected_cheaply() {
        let mut lying = Vec::new();
        put_uv(&mut lying, 2); // arity
        put_uv(&mut lying, u32::MAX as u64); // count
        let err = decode_batch(&lying).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));

        // Arity-0 counts are bounded explicitly.
        let mut lying = Vec::new();
        put_uv(&mut lying, 0);
        put_uv(&mut lying, u64::MAX);
        let err = decode_batch(&lying).unwrap_err();
        assert!(err.to_string().contains("implausible"));
    }

    /// On decode failure the output buffer is untouched (columns decode
    /// into scratch before any tuple is assembled).
    #[test]
    fn failed_decode_leaves_output_untouched() {
        let good = encode_batch(2, &[ituple![1, 2], ituple![3, 4]]).unwrap();
        let mut out = vec![ituple![9, 9]];
        assert!(decode_batch_into(&good[..good.len() - 1], &mut out).is_err());
        assert_eq!(out, vec![ituple![9, 9]]);
    }

    /// A replay log retains payloads until `Terminate`: each is allocated
    /// at exactly its wire length, with no reserve left over.
    #[test]
    fn every_payload_is_allocated_at_its_wire_length() {
        let mut rng = SmallRng::seed_from_u64(0x512E);
        for case in 0..400 {
            let arity = rng.gen_below(6) as usize;
            let count = rng.gen_below(300) as usize;
            let bytes = encode_batch(arity, &random_tuples(&mut rng, arity, count)).unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "case {case} (arity {arity}, count {count})");
        }
        let sorted: Vec<Tuple> = (0..1_000).map(|k| ituple![k, 7]).collect();
        let bytes = encode_batch(2, &sorted).unwrap();
        assert_eq!(bytes.capacity(), bytes.len(), "delta and constant columns");
    }

    /// Rows decoded from every column kind, at every arity either side of
    /// the inline capacity, are the rows `Tuple::new` builds from the same
    /// values: equal, and hashing alike.
    #[test]
    fn decoded_rows_equal_and_hash_like_new_rows() {
        let big = Value::Sym(SymbolId(u32::MAX));
        let kinds: [(u8, [Value; 5]); 4] = [
            (COL_INT, [i64::MAX, i64::MIN, 0, -1, 5].map(Value::Int)),
            (COL_SYM, [big, Value::Sym(SymbolId(0)), big, Value::Sym(SymbolId(7)), big]),
            (COL_INT_DELTA, [i64::MIN, -1, 0, 7, i64::MAX].map(Value::Int)),
            (COL_MIXED, [Value::Int(i64::MIN), big, Value::Int(i64::MAX), Value::Sym(SymbolId(0)), Value::Int(3)]),
        ];
        for arity in 0..=5 {
            for shift in 0..kinds.len() {
                let kind = |c: usize| &kinds[(c + shift) % kinds.len()];
                let rows: Vec<Tuple> = (0..5)
                    .map(|r| Tuple::new(&(0..arity).map(|c| kind(c).1[r]).collect::<Vec<_>>()))
                    .collect();
                let bytes = encode_batch(arity, &rows).unwrap();
                let (mut cur, _, _) = open_batch(&bytes).unwrap();
                for c in 0..arity {
                    assert_eq!(cur.bytes[cur.pos], kind(c).0, "arity {arity}, column {c}");
                    read_column(&mut cur, rows.len(), |_| ()).unwrap();
                }
                let decoded = decode_batch(&bytes).unwrap();
                assert_eq!(decoded, rows, "arity {arity}, shift {shift}");
                for (d, t) in decoded.iter().zip(&rows) {
                    assert_eq!(gst_common::fxhash::hash_one(d), gst_common::fxhash::hash_one(t));
                }
            }
        }
    }

    fn random_tuples(rng: &mut SmallRng, arity: usize, count: usize) -> Vec<Tuple> {
        (0..count)
            .map(|_| {
                let values: Vec<Value> = (0..arity)
                    .map(|_| match rng.gen_below(6) {
                        0 => Value::Int(i64::MIN),
                        1 => Value::Int(i64::MAX),
                        2 => Value::Sym(SymbolId(rng.gen_below(u32::MAX as u64 + 1) as u32)),
                        3 => Value::Int(rng.gen_range_i64(-100..100)),
                        _ => Value::Int(rng.gen_range_i64(i64::MIN / 2..i64::MAX / 2)),
                    })
                    .collect();
                Tuple::new(&values)
            })
            .collect()
    }

    /// Seeded roundtrip fuzz: random batches across arities 0–5, empty
    /// through a few hundred tuples, extreme ints and mixed Int/Sym
    /// columns all survive encode → decode bit-exactly.
    #[test]
    fn fuzz_roundtrip_random_batches() {
        let mut rng = SmallRng::seed_from_u64(0xC0DEC);
        for case in 0..400 {
            let arity = rng.gen_below(6) as usize;
            let count = match rng.gen_below(4) {
                0 => 0,
                1 => rng.gen_below(4) as usize,
                2 => rng.gen_below(40) as usize,
                _ => rng.gen_below(300) as usize,
            };
            let tuples = random_tuples(&mut rng, arity, count);
            let bytes = encode_batch(arity, &tuples).unwrap();
            let decoded = decode_batch(&bytes).unwrap_or_else(|e| {
                panic!("case {case} (arity {arity}, count {count}) failed: {e}")
            });
            assert_eq!(decoded, tuples, "case {case}");
            assert_eq!(peek_batch(&bytes).unwrap(), (arity, count), "case {case}");
        }
    }

    /// Truncation sweep: *every* strict prefix of a valid encoding decodes
    /// to a typed `Error::Runtime` — never a panic, never a silent accept.
    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        let mut rng = SmallRng::seed_from_u64(0x7A71C);
        let mut encodings: Vec<Vec<u8>> = vec![
            encode_batch(0, &[Tuple::unit(), Tuple::unit()]).unwrap().to_vec(),
            encode_batch(3, &[]).unwrap().to_vec(),
            encode_batch(2, &(0..50).map(|k| ituple![k, k * k]).collect::<Vec<_>>())
                .unwrap()
                .to_vec(),
        ];
        for _ in 0..20 {
            let arity = 1 + rng.gen_below(4) as usize;
            let count = 1 + rng.gen_below(30) as usize;
            let tuples = random_tuples(&mut rng, arity, count);
            encodings.push(encode_batch(arity, &tuples).unwrap().to_vec());
        }
        for (i, full) in encodings.iter().enumerate() {
            for len in 0..full.len() {
                let result = std::panic::catch_unwind(|| decode_batch(&full[..len]));
                let outcome = result.unwrap_or_else(|_| {
                    panic!("encoding {i} truncated to {len}/{} panicked", full.len())
                });
                let err = match outcome {
                    Ok(_) => panic!(
                        "encoding {i} truncated to {len}/{} decoded successfully",
                        full.len()
                    ),
                    Err(e) => e,
                };
                assert!(
                    matches!(err, Error::Runtime(_)),
                    "encoding {i} at {len}: wrong error type {err:?}"
                );
            }
        }
    }
}
