//! Launch geometry: grid/block dimensions and kernel launch configuration.

use crate::types::Axis;
use std::fmt;

/// A CUDA `dim3`: extents along x, y and z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// 1-D shape `(x, 1, 1)`.
    pub const fn new1(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// 2-D shape `(x, y, 1)`.
    pub const fn new2(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// 3-D shape.
    pub const fn new3(x: u32, y: u32, z: u32) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// Total number of elements (`x·y·z`).
    pub const fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Extent along one axis.
    pub const fn get(self, axis: Axis) -> u32 {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    /// Convert a linear index (x-fastest, CUDA convention) to coordinates.
    pub fn delinearize(self, linear: u64) -> (u32, u32, u32) {
        debug_assert!(linear < self.count());
        let x = (linear % self.x as u64) as u32;
        let rest = linear / self.x as u64;
        let y = (rest % self.y as u64) as u32;
        let z = (rest / self.y as u64) as u32;
        (x, y, z)
    }

    /// Convert coordinates to a linear index (x-fastest).
    pub const fn linearize(self, x: u32, y: u32, z: u32) -> u64 {
        (z as u64 * self.y as u64 + y as u64) * self.x as u64 + x as u64
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.y == 1 && self.z == 1 {
            write!(f, "{}", self.x)
        } else if self.z == 1 {
            write!(f, "({},{})", self.x, self.y)
        } else {
            write!(f, "({},{},{})", self.x, self.y, self.z)
        }
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Dim3 {
        Dim3::new1(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Dim3 {
        Dim3::new2(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Dim3 {
        Dim3::new3(x, y, z)
    }
}

/// The geometry of one kernel launch: `kernel<<<grid, block>>>(…)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of blocks along each axis.
    pub grid: Dim3,
    /// Number of threads per block along each axis.
    pub block: Dim3,
}

impl LaunchConfig {
    /// Build a launch configuration.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> LaunchConfig {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
        }
    }

    /// The 1-D launch `ceil(n / block_x)` blocks of `block_x` threads used by
    /// the paper's running example (Listing 1).
    pub fn cover1(n: u64, block_x: u32) -> LaunchConfig {
        let blocks = n.div_ceil(block_x as u64);
        LaunchConfig::new(blocks as u32, block_x)
    }

    /// Total number of blocks in the grid.
    pub fn num_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }

    /// Total number of threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.num_blocks() * self.threads_per_block()
    }
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<<{}, {}>>>", self.grid, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover1_matches_listing1() {
        // Listing 1: N = 1200, block = 256 -> 5 blocks.
        let lc = LaunchConfig::cover1(1200, 256);
        assert_eq!(lc.num_blocks(), 5);
        assert_eq!(lc.threads_per_block(), 256);
        assert_eq!(lc.total_threads(), 1280);
    }

    #[test]
    fn linearize_roundtrip() {
        let d = Dim3::new3(4, 3, 2);
        for lin in 0..d.count() {
            let (x, y, z) = d.delinearize(lin);
            assert_eq!(d.linearize(x, y, z), lin);
            assert!(x < 4 && y < 3 && z < 2);
        }
    }

    #[test]
    fn x_is_fastest_axis() {
        let d = Dim3::new2(8, 8);
        assert_eq!(d.delinearize(0), (0, 0, 0));
        assert_eq!(d.delinearize(1), (1, 0, 0));
        assert_eq!(d.delinearize(8), (0, 1, 0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dim3::new1(7).to_string(), "7");
        assert_eq!(Dim3::new2(2, 3).to_string(), "(2,3)");
        assert_eq!(Dim3::new3(2, 3, 4).to_string(), "(2,3,4)");
        assert_eq!(LaunchConfig::new(5u32, 256u32).to_string(), "<<<5, 256>>>");
    }
}
