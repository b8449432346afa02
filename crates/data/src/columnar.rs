//! Binary column-oriented encoding of datasets and mutations — the byte
//! substrate of the `asrs-persist` snapshot and write-ahead-log formats.
//!
//! # Layout
//!
//! All integers are little-endian; every `f64` travels as its IEEE-754 bit
//! pattern ([`f64::to_bits`]), so a decoded dataset is **bit-identical** to
//! the encoded one — NaNs, signed zeros and subnormals included.  A
//! dataset is stored column-oriented, in the spirit of the Parquet layout:
//! the schema (as JSON — the workspace serializer round-trips every `f64`
//! exactly), then one column per field — ids, xs, ys, and one value column
//! per schema attribute — each column holding all objects' entries
//! consecutively.  Column-major order groups same-typed bytes, which is
//! what makes a later compression pass worthwhile; order within a column
//! is the dataset's object order, so decoding reconstructs the exact
//! object vector (the engine's rebuild-equivalence guarantee depends on
//! it).
//!
//! The codec performs *no* framing, checksumming or versioning — those
//! belong to the file formats in `asrs-persist`, which wrap these bytes in
//! checked sections.  Decoding is bounds-checked and reports
//! [`ColumnarError`] instead of panicking: every declared length is
//! bounded by the bytes that remain before anything is allocated for it.
//! Beyond that it trusts the content semantically (callers verify a CRC
//! before decoding): whatever an append accepted must decode again, so
//! object locations are taken as written, NaN included.

use crate::{AttrValue, Dataset, Mutation, Schema, SpatialObject};
use asrs_geo::Point;
use std::fmt;

/// Decoding failure: truncated input or a malformed tag.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl ColumnarError {
    /// A decoding failure described by `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "columnar decode failed: {}", self.message)
    }
}

impl std::error::Error for ColumnarError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked sequential reader over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ColumnarError> {
        if self.remaining() < n {
            return Err(ColumnarError::new(format!(
                "needed {n} bytes at offset {}, only {} available",
                self.at,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ColumnarError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ColumnarError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ColumnarError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, ColumnarError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` element count for a sequence whose elements take at
    /// least `min_bytes_each` bytes, refusing counts the remaining input
    /// cannot hold — so a corrupt count never reaches an allocation.
    pub fn len(&mut self, min_bytes_each: usize) -> Result<usize, ColumnarError> {
        let len = self.u64()?;
        let fits = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_mul(min_bytes_each))
            .is_some_and(|bytes| bytes <= self.remaining());
        if !fits {
            return Err(ColumnarError::new(format!(
                "length {len} exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ColumnarError> {
        let len = self.u64()? as usize;
        if len > self.remaining() {
            return Err(ColumnarError::new(format!(
                "string length {len} exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|e| ColumnarError::new(format!("string is not UTF-8: {e}")))
    }
}

/// Value-column tags.
const TAG_CAT: u8 = 1;
const TAG_NUM: u8 = 2;

/// Mutation tags.
const TAG_APPEND: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_EXPIRE: u8 = 3;

fn put_value(out: &mut Vec<u8>, value: &AttrValue) {
    match value {
        AttrValue::Cat(c) => {
            put_u8(out, TAG_CAT);
            put_u32(out, *c);
        }
        AttrValue::Num(v) => {
            put_u8(out, TAG_NUM);
            put_f64(out, *v);
        }
    }
}

fn read_value(reader: &mut Reader<'_>) -> Result<AttrValue, ColumnarError> {
    match reader.u8()? {
        TAG_CAT => Ok(AttrValue::Cat(reader.u32()?)),
        TAG_NUM => Ok(AttrValue::Num(reader.f64()?)),
        tag => Err(ColumnarError::new(format!("unknown value tag {tag}"))),
    }
}

/// Encodes `dataset` column-oriented (see the module documentation).
///
/// The attribute column count is taken from the schema; objects are
/// expected to carry one value per attribute (every validated dataset
/// does).
pub fn encode_dataset(dataset: &Dataset, out: &mut Vec<u8>) {
    put_str(out, &serde::json::to_string(dataset.schema()));
    put_u64(out, dataset.len() as u64);
    for o in dataset.objects() {
        put_u64(out, o.id);
    }
    for o in dataset.objects() {
        put_f64(out, o.location.x);
    }
    for o in dataset.objects() {
        put_f64(out, o.location.y);
    }
    let arity = dataset.schema().len();
    put_u32(out, arity as u32);
    for attr in 0..arity {
        for o in dataset.objects() {
            put_value(out, &o.values[attr]);
        }
    }
}

/// Decodes a dataset encoded by [`encode_dataset`], reconstructing the
/// exact object vector (ids, locations and values are bit-identical and
/// in the original order).
///
/// The objects are *not* re-validated against the schema — the encoder
/// only ever sees validated datasets, and persistence callers verify a
/// checksum before decoding.
pub fn decode_dataset(reader: &mut Reader<'_>) -> Result<Dataset, ColumnarError> {
    let schema_json = reader.str()?;
    let schema: Schema = serde::json::from_str(&schema_json)
        .map_err(|e| ColumnarError::new(format!("schema JSON invalid: {e}")))?;
    // Every object takes at least 24 bytes: its id, x and y.
    let n = reader.len(24)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(reader.u64()?);
    }
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(reader.f64()?);
    }
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        ys.push(reader.f64()?);
    }
    let arity = reader.u32()? as usize;
    if arity != schema.len() {
        return Err(ColumnarError::new(format!(
            "{arity} value columns for a schema of {} attributes",
            schema.len()
        )));
    }
    let mut columns: Vec<Vec<AttrValue>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut column = Vec::with_capacity(n);
        for _ in 0..n {
            column.push(read_value(reader)?);
        }
        columns.push(column);
    }
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| {
            SpatialObject::new(
                ids[i],
                Point::new(xs[i], ys[i]),
                columns.iter().map(|column| column[i]).collect(),
            )
        })
        .collect();
    Ok(Dataset::new_unchecked(schema, objects))
}

/// Encodes one object row-oriented (the WAL's append payload).
pub fn encode_object(object: &SpatialObject, out: &mut Vec<u8>) {
    put_u64(out, object.id);
    put_f64(out, object.location.x);
    put_f64(out, object.location.y);
    put_u32(out, object.values.len() as u32);
    for value in &object.values {
        put_value(out, value);
    }
}

/// Decodes an object encoded by [`encode_object`].
pub fn decode_object(reader: &mut Reader<'_>) -> Result<SpatialObject, ColumnarError> {
    let id = reader.u64()?;
    let x = reader.f64()?;
    let y = reader.f64()?;
    let arity = reader.u32()? as usize;
    // Every value takes at least 5 bytes: its tag and a u32.
    if arity.saturating_mul(5) > reader.remaining() {
        return Err(ColumnarError::new(format!(
            "{arity} values exceed the {} remaining bytes",
            reader.remaining()
        )));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(read_value(reader)?);
    }
    Ok(SpatialObject::new(id, Point::new(x, y), values))
}

/// Encodes one mutation (the WAL's frame payload).
pub fn encode_mutation(mutation: &Mutation, out: &mut Vec<u8>) {
    match mutation {
        Mutation::Append { object } => {
            put_u8(out, TAG_APPEND);
            encode_object(object, out);
        }
        Mutation::Remove { id } => {
            put_u8(out, TAG_REMOVE);
            put_u64(out, *id);
        }
        Mutation::Expire { id } => {
            put_u8(out, TAG_EXPIRE);
            put_u64(out, *id);
        }
    }
}

/// Decodes a mutation encoded by [`encode_mutation`].
pub fn decode_mutation(reader: &mut Reader<'_>) -> Result<Mutation, ColumnarError> {
    match reader.u8()? {
        TAG_APPEND => Ok(Mutation::Append {
            object: decode_object(reader)?,
        }),
        TAG_REMOVE => Ok(Mutation::Remove { id: reader.u64()? }),
        TAG_EXPIRE => Ok(Mutation::Expire { id: reader.u64()? }),
        tag => Err(ColumnarError::new(format!("unknown mutation tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TweetGenerator, UniformGenerator};

    #[test]
    fn dataset_round_trips_bit_identically() {
        for dataset in [
            UniformGenerator::default().generate(200, 11),
            TweetGenerator::compact(24).generate(150, 3),
        ] {
            let mut bytes = Vec::new();
            encode_dataset(&dataset, &mut bytes);
            let decoded = decode_dataset(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(decoded.schema(), dataset.schema());
            assert!(decoded.objects().eq(dataset.objects()));
        }
    }

    #[test]
    fn non_finite_and_signed_zero_floats_survive() {
        let ds = UniformGenerator::default().generate(3, 1);
        let mut bytes = Vec::new();
        for v in [f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE] {
            bytes.clear();
            put_f64(&mut bytes, v);
            let back = Reader::new(&bytes).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // A full object with an exotic location round-trips bit-exactly.
        let object =
            SpatialObject::new(99, Point::new(-0.0, 1.0e-310), ds.object(0).values.clone());
        bytes.clear();
        encode_object(&object, &mut bytes);
        let back = decode_object(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.location.x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.location.y.to_bits(), 1.0e-310f64.to_bits());
        assert_eq!(back, object);
    }

    #[test]
    fn mutations_round_trip() {
        let ds = UniformGenerator::default().generate(5, 7);
        for mutation in [
            Mutation::Append {
                object: ds.object(2).clone(),
            },
            Mutation::Remove { id: 42 },
            Mutation::Expire { id: 7 },
        ] {
            let mut bytes = Vec::new();
            encode_mutation(&mutation, &mut bytes);
            assert_eq!(decode_mutation(&mut Reader::new(&bytes)).unwrap(), mutation);
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let ds = UniformGenerator::default().generate(20, 5);
        let mut bytes = Vec::new();
        encode_dataset(&ds, &mut bytes);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_dataset(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
        // Garbage tag.
        let err = decode_mutation(&mut Reader::new(&[9u8, 0, 0])).unwrap_err();
        assert!(err.message.contains("unknown mutation tag"));
    }
}
