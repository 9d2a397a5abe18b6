//! The unified typed host↔device transfer surface.
//!
//! [`HostScalar`] is the single trait behind every transfer entry point:
//! the generic [`upload`](crate::runtime::CuccCluster::upload) /
//! [`download`](crate::runtime::CuccCluster::download) pair (and their
//! `_on` stream twins) move any implementing scalar type through one
//! validated, `Result`-returning code path.
//!
//! All encodings are little-endian, matching the simulated device memory
//! layout the interpreter reads and writes.

use std::borrow::Cow;

/// A scalar type that can cross the host↔device boundary.
///
/// `encode` produces the device byte image of a host slice; `decode`
/// reconstructs host values from device bytes. For `u8` both directions
/// are free (borrowed); wider scalars serialize to little-endian.
pub trait HostScalar: Copy {
    /// Size of one element in device memory, in bytes.
    const SIZE: usize;

    /// Short type name used in transfer error messages.
    const NAME: &'static str;

    /// Device byte image of `data` (borrowed when the host layout already
    /// matches, owned otherwise).
    fn encode(data: &[Self]) -> Cow<'_, [u8]>;

    /// Reconstruct host values from a device byte image whose length is a
    /// multiple of [`HostScalar::SIZE`].
    fn decode(bytes: &[u8]) -> Vec<Self>;
}

impl HostScalar for u8 {
    const SIZE: usize = 1;
    const NAME: &'static str = "u8";

    fn encode(data: &[Self]) -> Cow<'_, [u8]> {
        Cow::Borrowed(data)
    }

    fn decode(bytes: &[u8]) -> Vec<Self> {
        bytes.to_vec()
    }
}

macro_rules! le_scalar {
    ($ty:ty, $name:literal) => {
        impl HostScalar for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            const NAME: &'static str = $name;

            fn encode(data: &[Self]) -> Cow<'_, [u8]> {
                let mut bytes = Vec::with_capacity(data.len() * Self::SIZE);
                for v in data {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                Cow::Owned(bytes)
            }

            fn decode(bytes: &[u8]) -> Vec<Self> {
                bytes
                    .chunks_exact(Self::SIZE)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            }
        }
    };
}

le_scalar!(f32, "f32");
le_scalar!(f64, "f64");
le_scalar!(i32, "i32");
le_scalar!(u32, "u32");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_round_trips_borrowed() {
        let data = [1u8, 2, 3];
        let enc = <u8 as HostScalar>::encode(&data);
        assert!(matches!(enc, Cow::Borrowed(_)));
        assert_eq!(<u8 as HostScalar>::decode(&enc), data);
    }

    #[test]
    fn wide_scalars_round_trip_little_endian() {
        let f = [1.5f32, -2.25, 0.0];
        let enc = <f32 as HostScalar>::encode(&f);
        assert_eq!(enc.len(), 12);
        assert_eq!(&enc[..4], &1.5f32.to_le_bytes());
        assert_eq!(<f32 as HostScalar>::decode(&enc), f);

        let i = [i32::MIN, -1, 7];
        assert_eq!(
            <i32 as HostScalar>::decode(&<i32 as HostScalar>::encode(&i)),
            i
        );
        let d = [1.0f64, f64::MAX];
        assert_eq!(
            <f64 as HostScalar>::decode(&<f64 as HostScalar>::encode(&d)),
            d
        );
        let u = [0u32, u32::MAX];
        assert_eq!(
            <u32 as HostScalar>::decode(&<u32 as HostScalar>::encode(&u)),
            u
        );
    }
}
