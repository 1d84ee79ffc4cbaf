//! Multi-field archives: one container for a whole dataset's compressed
//! fields (the workflow of the paper's artifact, which compresses each
//! SDRBench field file of a dataset in turn).
//!
//! Layout: a small header, then per entry a name, the logical shape, and a
//! standard [`Compressed`] stream. Entries keep their own error bounds and
//! element types, so mixed-precision datasets archive cleanly.

use crate::dtype::FloatData;
use crate::format::{Compressed, FormatError};
use crate::host_ref;
use crate::{CuszpConfig, ErrorBound};
use serde::{Deserialize, Serialize};

/// Archive magic bytes.
pub const ARCHIVE_MAGIC: [u8; 8] = *b"CUSZPAR1";

/// Smallest serialized entry: name length, rank, one extent and the
/// stream length, with an empty name and stream.
const MIN_ENTRY_BYTES: usize = 2 + 1 + 8 + 8;

/// One named, shaped compressed field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// Field name (e.g. `"temperature"`).
    pub name: String,
    /// Logical shape, row-major.
    pub shape: Vec<usize>,
    /// The compressed stream.
    pub stream: Compressed,
}

/// A collection of compressed fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Archive {
    /// The entries, in insertion order.
    pub entries: Vec<Entry>,
}

impl Archive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress and append one field. The REL denominator is this field's
    /// own value range, as in the per-file artifact workflow.
    pub fn push<T: FloatData>(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        data: &[T],
        bound: ErrorBound,
        cfg: CuszpConfig,
    ) {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape/data mismatch");
        let eb = bound.absolute(crate::value_range(data));
        self.entries.push(Entry {
            name: name.into(),
            shape,
            stream: host_ref::compress(data, eb, cfg),
        });
    }

    /// Find an entry by name.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Decompress one entry to its element type.
    ///
    /// # Panics
    /// Panics if `T` mismatches the entry's stored type.
    pub fn decompress<T: FloatData>(&self, name: &str) -> Option<Vec<T>> {
        self.get(name).map(|e| host_ref::decompress(&e.stream))
    }

    /// Total compressed payload (the CR denominator across the dataset).
    pub fn stream_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.stream.stream_bytes()).sum()
    }

    /// Total original bytes.
    pub fn original_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.stream.num_elements * e.stream.dtype.size() as u64)
            .sum()
    }

    /// Serialize the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ARCHIVE_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            let name = e.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.push(e.shape.len() as u8);
            for &d in &e.shape {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            let stream = e.stream.to_bytes();
            out.extend_from_slice(&(stream.len() as u64).to_le_bytes());
            out.extend_from_slice(&stream);
        }
        out
    }

    /// Parse an archive produced by [`Archive::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Archive, FormatError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], FormatError> {
            if n > bytes.len() - *pos {
                return Err(FormatError::Truncated);
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, FormatError> {
            Ok(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("len checked"),
            ))
        };
        if take(&mut pos, 8)? != ARCHIVE_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len checked"));
        // The count is untrusted: reserve no more entries than the
        // remaining bytes could hold.
        let mut entries =
            Vec::with_capacity((count as usize).min((bytes.len() - pos) / MIN_ENTRY_BYTES));
        for _ in 0..count {
            let name_len =
                u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("len checked")) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| FormatError::Corrupt("entry name not UTF-8"))?;
            let ndim = take(&mut pos, 1)?[0] as usize;
            if !(1..=4).contains(&ndim) {
                return Err(FormatError::Corrupt("bad entry rank"));
            }
            // Extents and the stream length stay `u64` until checked, so
            // a 32-bit target cannot truncate a forged value into a
            // plausible one.
            let mut extents = [0u64; 4];
            for d in &mut extents[..ndim] {
                *d = read_u64(&mut pos)?;
            }
            let extents = &extents[..ndim];
            let stream_len =
                usize::try_from(read_u64(&mut pos)?).map_err(|_| FormatError::Truncated)?;
            let stream = Compressed::from_bytes(take(&mut pos, stream_len)?)?;
            let n = extents.iter().try_fold(1u64, |n, &d| n.checked_mul(d));
            if n != Some(stream.num_elements) {
                return Err(FormatError::Corrupt("entry shape vs stream length"));
            }
            let shape = extents
                .iter()
                .map(|&d| usize::try_from(d))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| FormatError::Corrupt("entry extent exceeds usize"))?;
            entries.push(Entry {
                name,
                shape,
                stream,
            });
        }
        if pos != bytes.len() {
            return Err(FormatError::Corrupt("trailing bytes after archive"));
        }
        Ok(Archive { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Archive {
        let mut ar = Archive::new();
        let a: Vec<f32> = (0..240).map(|i| (i as f32 * 0.1).sin()).collect();
        let b: Vec<f64> = (0..60).map(|i| i as f64 * 7.5).collect();
        ar.push(
            "alpha",
            vec![8, 30],
            &a,
            ErrorBound::Rel(1e-3),
            CuszpConfig::default(),
        );
        ar.push(
            "beta",
            vec![60],
            &b,
            ErrorBound::Abs(0.01),
            CuszpConfig::default(),
        );
        ar
    }

    #[test]
    fn push_and_lookup() {
        let ar = sample();
        assert_eq!(ar.entries.len(), 2);
        assert!(ar.get("alpha").is_some());
        assert!(ar.get("gamma").is_none());
        assert_eq!(ar.original_bytes(), 240 * 4 + 60 * 8);
        assert!(ar.stream_bytes() > 0);
    }

    #[test]
    fn mixed_precision_roundtrip() {
        let ar = sample();
        let a: Vec<f32> = ar.decompress("alpha").unwrap();
        assert_eq!(a.len(), 240);
        let b: Vec<f64> = ar.decompress("beta").unwrap();
        for (i, &v) in b.iter().enumerate() {
            assert!((v - i as f64 * 7.5).abs() <= 0.01 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let ar = sample();
        let bytes = ar.to_bytes();
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back, ar);
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Archive::from_bytes(&bytes[..bytes.len() - 3]),
            Err(FormatError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Archive::from_bytes(&bad), Err(FormatError::BadMagic));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            Archive::from_bytes(&trailing),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn untrusted_lengths_return_errors() {
        // A bare header claiming u32::MAX entries must not reserve for them.
        let mut bytes = ARCHIVE_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 12);
        assert_eq!(Archive::from_bytes(&bytes), Err(FormatError::Truncated));

        // A stream length near usize::MAX must not wrap the bounds check.
        let mut bytes = ARCHIVE_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty name
        bytes.push(1);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Archive::from_bytes(&bytes), Err(FormatError::Truncated));
    }

    #[test]
    fn overflowing_shape_is_corrupt() {
        let mut bytes = sample().to_bytes();
        // Entry "alpha": 12-byte header, name length + name, rank, then
        // the two extents; make their product overflow u64.
        let extents = 12 + 2 + 5 + 1;
        bytes[extents..extents + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[extents + 8..extents + 16].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));

        // 8 + 2^32 by 30: truncated to 32 bits the product is the true
        // 240 elements, so the check must run on the full u64 extents.
        let mut bytes = sample().to_bytes();
        bytes[extents..extents + 8].copy_from_slice(&(8u64 + (1 << 32)).to_le_bytes());
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_rejected() {
        let mut ar = Archive::new();
        ar.push(
            "x",
            vec![10],
            &[0.0f32; 9],
            ErrorBound::Abs(0.1),
            CuszpConfig::default(),
        );
    }
}
