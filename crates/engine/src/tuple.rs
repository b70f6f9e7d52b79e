//! Byte-level tuple encoding.
//!
//! Tuples are stored in pages as a flat byte encoding: one tag byte per
//! value followed by a fixed or length-prefixed payload. The encoding is
//! self-describing so a tuple can be decoded without its schema (the schema
//! is still used for validation at insert time).

use crate::error::{EngineError, Result};
use crate::value::Value;

/// A materialized row.
pub type Tuple = Vec<Value>;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Append the encoding of `row` to `out`. Returns the number of bytes
/// written.
pub fn encode_into(row: &[Value], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    debug_assert!(row.len() <= u16::MAX as usize);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                let bytes = s.as_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    out.len() - start
}

/// The number of bytes [`encode_into`] writes for `row`.
pub fn encoded_len(row: &[Value]) -> usize {
    2 + row
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

/// Encode a row into a fresh buffer.
pub fn encode(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * row.len() + 2);
    encode_into(row, &mut out);
    out
}

/// Which columns of a stored row a reader needs materialised.
///
/// The planner computes one per scan: the columns that anything above the
/// scan reads. [`decode_into`] checks every column either way and leaves
/// `Value::Null` in the positions the mask drops, so `Input(i)` ordinals
/// keep their meaning. One bit per column for the first 64; columns past
/// those are always kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMask(u64);

impl ColumnMask {
    /// Every column (the conservative default).
    pub const ALL: ColumnMask = ColumnMask(u64::MAX);
    /// No column (of the first 64).
    pub const NONE: ColumnMask = ColumnMask(0);

    /// Whether column `i` is materialised.
    #[inline]
    pub fn keeps(self, i: usize) -> bool {
        i >= 64 || self.0 >> i & 1 == 1
    }

    /// Keep column `i` as well.
    pub fn insert(&mut self, i: usize) {
        if i < 64 {
            self.0 |= 1 << i;
        }
    }

    /// Split a mask over a concatenated row `left ++ right` into the two
    /// sides' masks, `left_width` being the number of left columns.
    pub fn split_at(self, left_width: usize) -> (ColumnMask, ColumnMask) {
        if left_width >= 64 {
            return (self, ColumnMask::ALL);
        }
        // Right columns that sat past bit 63 were kept; they stay kept.
        let right = self.0 >> left_width | !(u64::MAX >> left_width);
        (self, ColumnMask(right))
    }
}

/// Decode a tuple previously produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Tuple> {
    let mut row = Tuple::new();
    decode_into(bytes, ColumnMask::ALL, &mut row)?;
    Ok(row)
}

/// Decode a tuple into an existing buffer, reusing its allocation, and
/// materialise only the columns `mask` keeps (`Value::Null` stands in for
/// the rest). Every column is still bounds-, tag- and UTF-8-checked, so the
/// call fails on exactly the inputs a full decode fails on. `row` is cleared
/// first; on error its contents are unspecified. This is the probe-path
/// decoder: an index probe fetches one matching row per rid, and reusing the
/// `Vec` and skipping unread strings leaves it allocation-free.
pub fn decode_into(bytes: &[u8], mask: ColumnMask, row: &mut Tuple) -> Result<()> {
    row.clear();
    let mut pos = 0usize;
    let ncols = read_u16(bytes, &mut pos)? as usize;
    row.reserve(ncols);
    for i in 0..ncols {
        let tag = *bytes
            .get(pos)
            .ok_or_else(|| EngineError::storage("truncated tuple: missing tag"))?;
        pos += 1;
        let keep = mask.keeps(i);
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(read_array(bytes, &mut pos)?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(read_array(bytes, &mut pos)?)),
            TAG_STR => {
                let len = u32::from_le_bytes(read_array(bytes, &mut pos)?) as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|e| *e <= bytes.len())
                    .ok_or_else(|| EngineError::storage("truncated tuple: string payload"))?;
                let s = std::str::from_utf8(&bytes[pos..end])
                    .map_err(|_| EngineError::storage("tuple string is not UTF-8"))?;
                pos = end;
                if keep {
                    Value::Str(s.to_owned())
                } else {
                    Value::Null
                }
            }
            t => return Err(EngineError::storage(format!("unknown value tag {t}"))),
        };
        row.push(if keep { v } else { Value::Null });
    }
    if pos != bytes.len() {
        return Err(EngineError::storage("trailing bytes after tuple"));
    }
    Ok(())
}

fn read_u16(bytes: &[u8], pos: &mut usize) -> Result<u16> {
    Ok(u16::from_le_bytes(read_array(bytes, pos)?))
}

fn read_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = pos
        .checked_add(N)
        .filter(|e| *e <= bytes.len())
        .ok_or_else(|| EngineError::storage("truncated tuple"))?;
    let mut a = [0u8; N];
    a.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let row = vec![
            Value::Int(42),
            Value::Null,
            Value::Float(-2.5),
            Value::str("hello, wörld"),
        ];
        let bytes = encode(&row);
        assert_eq!(decode(&bytes).unwrap(), row);
    }

    #[test]
    fn encoded_len_is_what_encode_writes() {
        let row = vec![
            Value::Int(42),
            Value::Null,
            Value::Float(-2.5),
            Value::str("hello, wörld"),
        ];
        assert_eq!(encoded_len(&row), encode(&row).len());
        assert_eq!(encoded_len(&[]), encode(&[]).len());
    }

    #[test]
    fn roundtrip_empty_row() {
        let row: Tuple = vec![];
        assert_eq!(decode(&encode(&row)).unwrap(), row);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode(&[Value::Int(7)]);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode(&[Value::Int(7)]);
        bytes.push(0xFF);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_into_reuses_buffer_across_rows() {
        let a = encode(&[Value::Int(1), Value::str("x")]);
        let b = encode(&[Value::Float(2.5)]);
        let mut row = Tuple::new();
        decode_into(&a, ColumnMask::ALL, &mut row).unwrap();
        assert_eq!(row, vec![Value::Int(1), Value::str("x")]);
        decode_into(&b, ColumnMask::ALL, &mut row).unwrap();
        assert_eq!(row, vec![Value::Float(2.5)]);
    }

    #[test]
    fn pruned_decode_nulls_dropped_columns_and_keeps_those_past_64() {
        let wide: Tuple = (0..70).map(Value::Int).collect();
        let mut mask = ColumnMask::NONE;
        mask.insert(3);
        let mut row = Tuple::new();
        decode_into(&encode(&wide), mask, &mut row).unwrap();
        for (i, v) in row.iter().enumerate() {
            let kept = i == 3 || i >= 64;
            assert_eq!(*v, if kept { wide[i].clone() } else { Value::Null });
        }
    }

    #[test]
    fn mask_splits_over_a_concatenated_row() {
        // Columns 1 and 4 of `left(3) ++ right`: left 1, right 1.
        let mut mask = ColumnMask::NONE;
        mask.insert(1);
        mask.insert(4);
        let (l, r) = mask.split_at(3);
        assert_eq!([l.keeps(0), l.keeps(1), l.keeps(2)], [false, true, false]);
        assert_eq!([r.keeps(0), r.keeps(1), r.keeps(2)], [false, true, false]);
        // Right columns that sat past bit 63 were kept, and stay kept.
        assert!(!r.keeps(60) && r.keeps(61) && r.keeps(63));
        // Nothing is known about the right side of a 64-column left side.
        assert_eq!(mask.split_at(64).1, ColumnMask::ALL);
        assert_eq!(ColumnMask::ALL.split_at(0).1, ColumnMask::ALL);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = encode(&[Value::Int(7)]);
        bytes[2] = 99; // tag of first value
        assert!(decode(&bytes).is_err());
    }
}
