//! Seeded input generation. Everything the program is given derives from
//! `--seed` through this generator; the program never sees the seed.

/// SplitMix64: small, fast, and fixed here so that the inputs of a given
/// seed never change when a library RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `salt` (one salt per workload
    /// input, so two inputs of one run are independent).
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, exactly representable steps of 2^-24.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` floats uniform in `[lo, hi)`.
    pub fn f32s(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32_in(lo, hi)).collect()
    }

    /// `n` bytes uniform in `0..modulus`.
    pub fn bytes_below(&mut self, n: usize, modulus: u64) -> Vec<u8> {
        (0..n).map(|_| self.below(modulus) as u8).collect()
    }

    /// A permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Little-endian bytes of a float slice (the device layout).
pub fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Little-endian bytes of an int slice.
pub fn i32_bytes(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// FNV-1a over `bytes`, continuing from `acc` (the serving layer's digest).
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Rng::new(1, 7).f32s(64, -1.0, 1.0);
        assert_eq!(a, Rng::new(1, 7).f32s(64, -1.0, 1.0));
        assert_ne!(a, Rng::new(2, 7).f32s(64, -1.0, 1.0));
        assert_ne!(a, Rng::new(1, 8).f32s(64, -1.0, 1.0));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn permutation_visits_every_index_once() {
        let mut p = Rng::new(3, 0).permutation(8);
        p.sort_unstable();
        assert_eq!(p, (0..8).collect::<Vec<_>>());
    }
}
