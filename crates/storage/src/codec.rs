//! A plain byte codec for the distributed-chase wire protocol.
//!
//! The partition servers of `tdx_core::chase::cluster` exchange facts,
//! homomorphism bindings and merge operations with their coordinator as
//! *serialized byte messages*, even while they run as in-process actors:
//! every request and response crosses the channel as a `Vec<u8>` produced by
//! [`ByteWriter`] and re-parsed by [`ByteReader`]. That keeps the protocol
//! honest — nothing structured is shared through memory — so the channel
//! pair can later be swapped for a socket without touching the protocol
//! layer.
//!
//! The encoding is bincode-style: fixed-width little-endian integers, a
//! `u64` length prefix for sequences, one tag byte for enums. String
//! constants travel as their text (not their process-local
//! [`Symbol`](tdx_logic::Symbol) ids — intern ids are meaningless across
//! process boundaries) and are re-interned on decode.

use crate::matcher::SearchOptions;
use crate::temporal_instance::TemporalFact;
use crate::value::{NullId, Row, Value};
use std::fmt;
use std::io;
use std::sync::Arc;
use tdx_logic::{Atom, Constant, RelId, RelationSchema, Schema, Symbol, Term, Var};
use tdx_temporal::{Breakpoints, Endpoint, Interval, TimelinePartition};

/// A decode failure: truncated input, an unknown enum tag, or malformed
/// UTF-8. The protocol layer treats any of these as a fatal transport
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Serializes wire values into a growing byte buffer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends already-encoded bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one raw byte (enum tags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Deserializes wire values from a byte slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed — a completed message must
    /// leave nothing behind.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        // `n` can come straight from a corrupted length prefix, so the
        // bounds check must not itself overflow — a wrapped `pos + n`
        // would turn malformed input into a slice panic instead of the
        // CodecError the protocol layer relies on.
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                CodecError(format!(
                    "truncated input: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// [`take`](Self::take) as a fixed-size array — the checked split
    /// makes the size part of the type, so the integer readers below need
    /// no fallible conversion at all.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        let Some((chunk, _)) = rest.split_first_chunk::<N>() else {
            return Err(CodecError(format!(
                "truncated input: need {N} bytes at offset {}, have {}",
                self.pos,
                rest.len()
            )));
        };
        self.pos += N;
        Ok(*chunk)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u64()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| CodecError(format!("malformed UTF-8 string: {e}")))
    }
}

/// A value with a wire representation. Implementations must round-trip:
/// `read(write(v)) == v` (string constants round-trip by text, re-interned
/// on the decoding side).
pub trait Wire: Sized {
    /// Appends this value to `w`.
    fn write(&self, w: &mut ByteWriter);
    /// Parses one value from `r`.
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Serializes one `Wire` value into a standalone message buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.write(&mut w);
    w.into_bytes()
}

/// Parses one `Wire` value from a standalone message buffer, requiring the
/// buffer to be fully consumed.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let v = T::read(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError("trailing bytes after message".into()));
    }
    Ok(v)
}

/// Upper bound on a framed message (1 GiB). A length prefix beyond it is
/// treated as stream corruption rather than an allocation request — the
/// same defensive stance [`ByteReader::take`] applies to in-message length
/// prefixes.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Writes one length-prefixed frame — a `u32` little-endian payload length
/// followed by the payload — and flushes. This is the unit a socket
/// transport ships: `write_frame(encode(&msg))` on one side,
/// `decode(read_frame()?)` on the other.
pub fn write_frame(w: &mut impl io::Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .ok()
        .filter(|&l| (l as usize) <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME_LEN", frame.len()),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one length-prefixed frame written by [`write_frame`]. A cleanly
/// closed peer surfaces as `UnexpectedEof` on the length prefix; a prefix
/// beyond [`MAX_FRAME_LEN`] as `InvalidData` (corruption, not an
/// allocation).
pub fn read_frame(r: &mut impl io::Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length prefix {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

impl Wire for u32 {
    fn write(&self, w: &mut ByteWriter) {
        w.u32(*self);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(*self);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl Wire for usize {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(*self as u64);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.u64()? as usize)
    }
}

impl Wire for String {
    fn write(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(r.str()?.to_string())
    }
}

impl Wire for RelId {
    fn write(&self, w: &mut ByteWriter) {
        w.u32(self.0);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(RelId(r.u32()?))
    }
}

impl Wire for Value {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Value::Const(Constant::Int(i)) => {
                w.u8(0);
                w.i64(*i);
            }
            Value::Const(Constant::Str(s)) => {
                w.u8(1);
                w.str(s.as_str());
            }
            Value::Null(NullId(n)) => {
                w.u8(2);
                w.u64(*n);
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Value::Const(Constant::Int(r.i64()?))),
            1 => Ok(Value::str(r.str()?)),
            2 => Ok(Value::Null(NullId(r.u64()?))),
            tag => Err(CodecError(format!("unknown Value tag {tag}"))),
        }
    }
}

impl Wire for Interval {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.start());
        match self.end() {
            Endpoint::Fin(e) => {
                w.u8(0);
                w.u64(e);
            }
            Endpoint::Inf => w.u8(1),
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let start = r.u64()?;
        match r.u8()? {
            0 => {
                let end = r.u64()?;
                if end <= start {
                    return Err(CodecError(format!("empty interval [{start}, {end})")));
                }
                Ok(Interval::new(start, end))
            }
            1 => Ok(Interval::from(start)),
            tag => Err(CodecError(format!("unknown Interval end tag {tag}"))),
        }
    }
}

impl Wire for Row {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for v in self.iter() {
            v.write(w);
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.u64()? as usize;
        let mut vals = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            vals.push(Value::read(r)?);
        }
        Ok(Arc::from(vals))
    }
}

impl Wire for TemporalFact {
    fn write(&self, w: &mut ByteWriter) {
        self.data.write(w);
        self.interval.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TemporalFact {
            data: Row::read(r)?,
            interval: Interval::read(r)?,
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for item in self {
            item.write(w);
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.u64()? as usize;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

impl Wire for bool {
    fn write(&self, w: &mut ByteWriter) {
        w.u8(*self as u8);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError(format!("unknown bool tag {tag}"))),
        }
    }
}

impl Wire for Constant {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Constant::Int(i) => {
                w.u8(0);
                w.i64(*i);
            }
            Constant::Str(s) => {
                w.u8(1);
                w.str(s.as_str());
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Constant::Int(r.i64()?)),
            1 => Ok(Constant::Str(Symbol::intern(r.str()?))),
            tag => Err(CodecError(format!("unknown Constant tag {tag}"))),
        }
    }
}

// The spawn-time configuration of an out-of-process partition server —
// dependency bodies, schemas, the timeline partition — travels through the
// same codec as the round messages. As everywhere on the wire, interned
// symbols (relation names, attribute names, variable names) travel as
// their text and re-intern on decode.

impl Wire for Var {
    fn write(&self, w: &mut ByteWriter) {
        w.str(self.name());
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Var::new(r.str()?))
    }
}

impl Wire for Term {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Term::Var(v) => {
                w.u8(0);
                v.write(w);
            }
            Term::Const(c) => {
                w.u8(1);
                c.write(w);
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Term::Var(Var::read(r)?)),
            1 => Ok(Term::Const(Constant::read(r)?)),
            tag => Err(CodecError(format!("unknown Term tag {tag}"))),
        }
    }
}

impl Wire for Atom {
    fn write(&self, w: &mut ByteWriter) {
        w.str(self.relation.as_str());
        self.terms.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let relation = Symbol::intern(r.str()?);
        Ok(Atom {
            relation,
            terms: Wire::read(r)?,
        })
    }
}

impl Wire for Schema {
    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for rel in self.relations() {
            w.str(rel.name().as_str());
            w.u64(rel.attrs().len() as u64);
            for a in rel.attrs() {
                w.str(a.as_str());
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let nrels = r.u64()? as usize;
        let mut rels = Vec::with_capacity(nrels.min(1024));
        for _ in 0..nrels {
            let name = Symbol::intern(r.str()?);
            let nattrs = r.u64()? as usize;
            let mut attrs = Vec::with_capacity(nattrs.min(1024));
            for _ in 0..nattrs {
                attrs.push(Symbol::intern(r.str()?));
            }
            rels.push(RelationSchema::from_symbols(name, attrs));
        }
        Schema::new(rels).map_err(|e| CodecError(format!("malformed schema on the wire: {e}")))
    }
}

impl Wire for TimelinePartition {
    fn write(&self, w: &mut ByteWriter) {
        self.boundaries().to_vec().write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let boundaries: Vec<u64> = Wire::read(r)?;
        // `TimelinePartition::new` sorts, dedups and drops a 0 boundary, so
        // a corrupted-but-decodable list still yields a valid partition.
        Ok(TimelinePartition::new(&Breakpoints::from_points(
            boundaries,
        )))
    }
}

impl Wire for SearchOptions {
    fn write(&self, w: &mut ByteWriter) {
        self.use_indexes.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SearchOptions {
            use_indexes: Wire::read(r)?,
        })
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
        self.3.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?, D::read(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert_eq!(decode::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(String::new());
        roundtrip("Ada Lovelace — 18k".to_string());
        roundtrip(RelId(7));
    }

    #[test]
    fn values_roundtrip() {
        roundtrip(Value::str("IBM"));
        roundtrip(Value::int(-42));
        roundtrip(Value::Null(NullId(9)));
    }

    #[test]
    fn intervals_roundtrip_including_unbounded() {
        roundtrip(Interval::new(2012, 2014));
        roundtrip(Interval::from(2014)); // unbounded end
        roundtrip(Interval::from(0));
        assert!(Interval::from(2014).is_unbounded());
    }

    #[test]
    fn facts_and_containers_roundtrip() {
        let fact = TemporalFact {
            data: row([Value::str("Ada"), Value::int(18), Value::Null(NullId(3))]),
            interval: Interval::from(2013),
        };
        roundtrip(fact.clone());
        roundtrip(vec![fact.clone(), fact]);
        roundtrip((RelId(1), Interval::new(1, 2)));
        roundtrip((1u32, "x".to_string(), Interval::from(5)));
        roundtrip(Vec::<Value>::new());
    }

    #[test]
    fn decode_rejects_malformed_input() {
        // Truncated.
        let bytes = encode(&Interval::new(3, 9));
        assert!(decode::<Interval>(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage.
        let mut bytes = encode(&Value::int(1));
        bytes.push(0);
        assert!(decode::<Value>(&bytes).is_err());
        // Unknown tag.
        assert!(decode::<Value>(&[9]).is_err());
        // A corrupted length prefix near u64::MAX must error, not panic.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX - 2);
        assert!(decode::<String>(&w.into_bytes()).is_err());
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        assert!(decode::<Vec<u64>>(&w.into_bytes()).is_err());
        // Empty interval on the wire.
        let mut w = ByteWriter::new();
        w.u64(5);
        w.u8(0);
        w.u64(5);
        assert!(decode::<Interval>(&w.into_bytes()).is_err());
    }

    #[test]
    fn string_constants_reintern_on_decode() {
        let v = Value::str("codec-reintern-probe");
        let decoded: Value = decode(&encode(&v)).unwrap();
        // Equality is by intern id — same process, same symbol.
        assert_eq!(decoded, v);
    }

    #[test]
    fn handshake_types_roundtrip() {
        use tdx_logic::parse_schema;
        roundtrip(true);
        roundtrip(false);
        roundtrip(Constant::str("IBM"));
        roundtrip(Constant::Int(i64::MIN));
        roundtrip(Var::new("salary"));
        roundtrip(Term::var("n"));
        roundtrip(Term::constant(42i64));
        roundtrip(Atom::new(
            "Emp",
            vec![Term::var("n"), Term::constant("IBM"), Term::var("s")],
        ));
        roundtrip(parse_schema("E(name, company). S(name, salary).").unwrap());
        roundtrip(Schema::empty());
        roundtrip(TimelinePartition::new(&Breakpoints::from_points([
            4, 9, 17,
        ])));
        roundtrip(TimelinePartition::whole());
        roundtrip(SearchOptions { use_indexes: false });
        roundtrip(SearchOptions::default());
    }

    #[test]
    fn frames_roundtrip_over_io_streams() {
        let payloads: [&[u8]; 3] = [b"", b"x", &[0u8; 4096]];
        let mut buf: Vec<u8> = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for p in payloads {
            assert_eq!(read_frame(&mut r).unwrap(), p);
        }
        // Clean EOF at a frame boundary.
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frames_reject_truncation_and_absurd_lengths() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // Truncated payload.
        let mut r = std::io::Cursor::new(&buf[..buf.len() - 1]);
        assert!(read_frame(&mut r).is_err());
        // Truncated length prefix.
        let mut r = std::io::Cursor::new(&buf[..2]);
        assert!(read_frame(&mut r).is_err());
        // A corrupted length prefix beyond MAX_FRAME_LEN must error without
        // attempting the allocation.
        let mut corrupt = (u32::MAX).to_le_bytes().to_vec();
        corrupt.extend_from_slice(b"junk");
        let mut r = std::io::Cursor::new(corrupt);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
