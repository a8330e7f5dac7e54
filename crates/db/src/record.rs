//! Row serialization.
//!
//! Two encodings, mirroring SQLite's design:
//!
//! * **Record format** — rows stored in table B-trees: a header of varint
//!   serial types followed by the value bodies (SQLite's record format).
//! * **Key encoding** — index keys: an order-preserving byte encoding so
//!   that `memcmp` order equals SQL comparison order, which lets the index
//!   B-tree compare keys without decoding.

use crate::error::{DbError, Result};
use crate::value::Value;

// --- varints (SQLite's 1..9-byte big-endian varint) -----------------------

/// Appends a varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 10];
    let mut n = 0;
    loop {
        tmp[n] = (v & 0x7F) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            break;
        }
    }
    for i in (0..n).rev() {
        let mut b = tmp[i];
        if i != 0 {
            b |= 0x80;
        }
        out.push(b);
    }
}

/// Reads a varint, returning (value, bytes consumed).
pub fn get_varint(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &b) in buf.iter().take(10).enumerate() {
        v = (v << 7) | (b & 0x7F) as u64;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    Err(DbError::Corrupt("truncated varint"))
}

// --- record format ---------------------------------------------------------

/// Serializes a row of values into SQLite's record format.
pub fn encode_record(values: &[Value]) -> Vec<u8> {
    let mut header = Vec::new();
    let mut body = Vec::new();
    for v in values {
        match v {
            Value::Null => put_varint(&mut header, 0),
            Value::Int(i) => {
                put_varint(&mut header, 6); // 8-byte big-endian int
                body.extend_from_slice(&i.to_be_bytes());
            }
            Value::Real(r) => {
                put_varint(&mut header, 7);
                body.extend_from_slice(&r.to_be_bytes());
            }
            Value::Blob(b) => {
                put_varint(&mut header, 12 + 2 * b.len() as u64);
                body.extend_from_slice(b);
            }
            Value::Text(s) => {
                put_varint(&mut header, 13 + 2 * s.len() as u64);
                body.extend_from_slice(s.as_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(header.len() + body.len() + 2);
    put_varint(&mut out, header.len() as u64);
    out.extend_from_slice(&header);
    out.extend_from_slice(&body);
    out
}

/// Parses a record back into values.
pub fn decode_record(buf: &[u8]) -> Result<Vec<Value>> {
    let (hlen, n0) = get_varint(buf)?;
    let header_end = n0 + hlen as usize;
    if header_end > buf.len() {
        return Err(DbError::Corrupt("record header overruns buffer"));
    }
    let mut types = Vec::new();
    let mut off = n0;
    while off < header_end {
        let (t, n) = get_varint(&buf[off..])?;
        types.push(t);
        off += n;
    }
    let mut values = Vec::with_capacity(types.len());
    let mut body = header_end;
    for t in types {
        let v = match t {
            0 => Value::Null,
            6 => {
                let src = buf
                    .get(body..body + 8)
                    .ok_or(DbError::Corrupt("record body truncated"))?;
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(src);
                body += 8;
                Value::Int(i64::from_be_bytes(bytes))
            }
            7 => {
                let src = buf
                    .get(body..body + 8)
                    .ok_or(DbError::Corrupt("record body truncated"))?;
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(src);
                body += 8;
                Value::Real(f64::from_be_bytes(bytes))
            }
            t if t >= 12 && t % 2 == 0 => {
                let len = ((t - 12) / 2) as usize;
                let bytes = buf
                    .get(body..body + len)
                    .ok_or(DbError::Corrupt("record body truncated"))?;
                body += len;
                Value::Blob(bytes.to_vec())
            }
            t if t >= 13 => {
                let len = ((t - 13) / 2) as usize;
                let bytes = buf
                    .get(body..body + len)
                    .ok_or(DbError::Corrupt("record body truncated"))?;
                body += len;
                Value::Text(String::from_utf8_lossy(bytes).into_owned())
            }
            _ => return Err(DbError::Corrupt("unknown serial type")),
        };
        values.push(v);
    }
    Ok(values)
}

// --- order-preserving index key encoding ------------------------------------

const TAG_NULL: u8 = 0x05;
const TAG_NUM: u8 = 0x10;
const TAG_TEXT: u8 = 0x20;
const TAG_BLOB: u8 = 0x25;

fn push_f64_ordered(out: &mut Vec<u8>, f: f64) {
    // IEEE-754 trick: flip all bits for negatives, the sign bit for
    // positives, so the byte order matches numeric order.
    let bits = f.to_bits();
    let ordered = if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000_0000_0000
    };
    out.extend_from_slice(&ordered.to_be_bytes());
}

fn push_escaped(out: &mut Vec<u8>, bytes: &[u8]) {
    // 0x00 bytes are escaped as 0x00 0xFF so the 0x00 0x00 terminator
    // sorts before any continuation.
    for &b in bytes {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0);
    out.push(0);
}

/// Appends one value in memcmp-order-preserving form.
pub fn push_key_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_NUM);
            push_f64_ordered(out, *i as f64);
            // Preserve exact integers beyond f64 precision with a suffix.
            out.extend_from_slice(&(*i as u64 ^ 0x8000_0000_0000_0000).to_be_bytes());
        }
        Value::Real(r) => {
            out.push(TAG_NUM);
            push_f64_ordered(out, *r);
            // Reals sort with integers via the shared f64 prefix; suffix
            // keeps int/real with equal value adjacent but distinct.
            out.extend_from_slice(&(*r as i64 as u64 ^ 0x8000_0000_0000_0000).to_be_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            push_escaped(out, s.as_bytes());
        }
        Value::Blob(b) => {
            out.push(TAG_BLOB);
            push_escaped(out, b);
        }
    }
}

/// Encodes a composite index key: the indexed values followed by the rowid
/// (which makes every key unique).
pub fn encode_index_key<'a>(values: impl IntoIterator<Item = &'a Value>, rowid: i64) -> Vec<u8> {
    let mut out = encode_index_prefix(values);
    out.push(0x7F); // separator below no tag
    out.extend_from_slice(&(rowid as u64 ^ 0x8000_0000_0000_0000).to_be_bytes());
    out
}

/// Prefix of an index key covering only the indexed values (for range
/// scans over all rowids with those values).
pub fn encode_index_prefix<'a>(values: impl IntoIterator<Item = &'a Value>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        push_key_value(&mut out, v);
    }
    out
}

/// Recovers the rowid from a composite index key.
pub fn index_key_rowid(key: &[u8]) -> Result<i64> {
    if key.len() < 8 {
        return Err(DbError::Corrupt("index key too short"));
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&key[key.len() - 8..]);
    Ok((u64::from_be_bytes(bytes) ^ 0x8000_0000_0000_0000) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX / 3,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, n) = get_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn record_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Real(3.25),
            Value::Text("héllo".into()),
            Value::Blob(vec![1, 2, 3, 0, 255]),
        ];
        let rec = encode_record(&row);
        assert_eq!(decode_record(&rec).unwrap(), row);
    }

    #[test]
    fn empty_record() {
        let rec = encode_record(&[]);
        assert_eq!(decode_record(&rec).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn corrupt_record_rejected() {
        assert!(decode_record(&[0x85]).is_err());
        let row = vec![Value::Int(7)];
        let mut rec = encode_record(&row);
        rec.truncate(rec.len() - 2);
        assert!(decode_record(&rec).is_err());
    }

    #[test]
    fn key_encoding_preserves_int_order() {
        let ints = [-1000i64, -2, -1, 0, 1, 2, 999, i64::MAX / 2];
        let keys: Vec<Vec<u8>> = ints
            .iter()
            .map(|&i| encode_index_key(&[Value::Int(i)], 0))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn key_encoding_preserves_real_order_and_mixes_with_ints() {
        let a = encode_index_prefix(&[Value::Real(-2.5)]);
        let b = encode_index_prefix(&[Value::Int(-2)]);
        let c = encode_index_prefix(&[Value::Real(0.5)]);
        let d = encode_index_prefix(&[Value::Int(1)]);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn key_encoding_preserves_text_order() {
        let mk = |s: &str| encode_index_prefix(&[Value::Text(s.into())]);
        assert!(mk("") < mk("a"));
        assert!(mk("a") < mk("aa"));
        assert!(mk("aa") < mk("ab"));
        // Embedded NULs must not confuse prefix ordering.
        assert!(mk("a\0") < mk("a\0b"));
        assert!(mk("a\0b") < mk("ab"));
    }

    #[test]
    fn key_types_sort_null_num_text_blob() {
        let n = encode_index_prefix(&[Value::Null]);
        let i = encode_index_prefix(&[Value::Int(0)]);
        let t = encode_index_prefix(&[Value::Text("".into())]);
        let b = encode_index_prefix(&[Value::Blob(vec![])]);
        assert!(n < i && i < t && t < b);
    }

    #[test]
    fn rowid_recoverable() {
        for rid in [-5i64, 0, 1, 1 << 40] {
            let key = encode_index_key(&[Value::Text("k".into())], rid);
            assert_eq!(index_key_rowid(&key).unwrap(), rid);
        }
    }

    #[test]
    fn prefix_matches_its_full_keys() {
        let prefix = encode_index_prefix(&[Value::Int(42)]);
        let key = encode_index_key(&[Value::Int(42)], 7);
        assert!(key.starts_with(&prefix));
        let other = encode_index_key(&[Value::Int(43)], 7);
        assert!(!other.starts_with(&prefix));
    }
}
