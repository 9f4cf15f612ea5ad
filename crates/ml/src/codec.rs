//! Tiny little-endian codec helpers shared by the model snapshot formats.
//!
//! No serde format crate is available in this dependency set, so each
//! estimator hand-rolls its binary layout on `bytes`; these helpers keep
//! the read side bounds-checked so truncated payloads fail loudly.

use crate::error::MlError;
use bytes::Buf;

/// Fails with a descriptive error if fewer than `n` bytes remain.
pub(crate) fn need(data: &&[u8], n: usize, what: &str) -> Result<(), MlError> {
    if data.remaining() < n {
        Err(MlError::Corrupt(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Reads a `u32` with bounds checking.
pub(crate) fn get_u32(data: &mut &[u8], what: &str) -> Result<u32, MlError> {
    need(data, 4, what)?;
    Ok(data.get_u32_le())
}

/// Reads a `u32` and validates it against a sanity cap (corrupt payloads
/// otherwise trigger absurd allocations).
pub(crate) fn get_count(data: &mut &[u8], cap: usize, what: &str) -> Result<usize, MlError> {
    let v = get_u32(data, what)? as usize;
    if v > cap {
        return Err(MlError::Corrupt(format!(
            "{what} count {v} exceeds cap {cap}"
        )));
    }
    Ok(v)
}

/// Reads an `f64` with bounds checking.
pub(crate) fn get_f64(data: &mut &[u8], what: &str) -> Result<f64, MlError> {
    need(data, 8, what)?;
    let v = data.get_f64_le();
    if v.is_nan() {
        return Err(MlError::Corrupt(format!("{what} is NaN")));
    }
    Ok(v)
}

/// Reads `n` f64 values.
pub(crate) fn get_f64_vec(data: &mut &[u8], n: usize, what: &str) -> Result<Vec<f64>, MlError> {
    need(data, n * 8, what)?;
    Ok((0..n).map(|_| data.get_f64_le()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn round_trips_values() {
        let mut buf = bytes::BytesMut::new();
        buf.put_u32_le(7);
        buf.put_f64_le(1.5);
        buf.put_f64_le(-2.5);
        let bytes = buf.freeze();
        let mut data = &bytes[..];
        assert_eq!(get_u32(&mut data, "x").unwrap(), 7);
        assert_eq!(get_f64_vec(&mut data, 2, "v").unwrap(), vec![1.5, -2.5]);
    }

    #[test]
    fn truncation_and_caps_error() {
        let bytes = [1u8, 2];
        let mut data = &bytes[..];
        assert!(matches!(get_u32(&mut data, "x"), Err(MlError::Corrupt(_))));

        let mut buf = bytes::BytesMut::new();
        buf.put_u32_le(1_000_000);
        let b = buf.freeze();
        let mut data = &b[..];
        assert!(get_count(&mut data, 100, "trees").is_err());
    }

    #[test]
    fn nan_is_rejected() {
        let mut buf = bytes::BytesMut::new();
        buf.put_f64_le(f64::NAN);
        let b = buf.freeze();
        let mut data = &b[..];
        assert!(get_f64(&mut data, "w").is_err());
    }
}
