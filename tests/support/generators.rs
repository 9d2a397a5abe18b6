//! The random-kernel generators of the analysis and verifier property
//! tests, in one copy: `tests/proptest_analysis.rs` and
//! `tests/proptest_verify.rs` pull this file in with `#[path]`, and so do
//! the in-crate corpus tests of `cucc-analysis` (which see the crate-visible
//! planner halves an integration test cannot). Pure data — sources, launch
//! shapes, sizes — so it names no crate of the workspace.
#![allow(dead_code)] // each user reads a different half

use proptest::prelude::*;

/// A random affine-ish kernel: `out[a·id + b + (guarded?)] = f(id)` with a
/// random scale/offset, optional tail guard, optional per-thread inner loop
/// writing `w` consecutive elements.
#[derive(Debug, Clone)]
pub struct RandomKernel {
    pub scale: i64,
    pub offset: i64,
    pub width: i64,
    pub guard: bool,
    pub blocks: u32,
    pub threads: u32,
    pub n: i64,
}

impl RandomKernel {
    pub fn source(&self) -> String {
        let idx = if self.width > 1 {
            format!(
                "(id * {s} + {o}) * {w} + i",
                s = self.scale,
                o = self.offset,
                w = self.width
            )
        } else {
            format!("id * {s} + {o}", s = self.scale, o = self.offset)
        };
        let body = if self.width > 1 {
            format!(
                "for (int i = 0; i < {w}; i++) out[{idx}] = id + i;",
                w = self.width,
                idx = idx
            )
        } else {
            format!("out[{idx}] = id;", idx = idx)
        };
        let guarded = if self.guard {
            format!("if (id < n) {{ {body} }}")
        } else {
            body
        };
        format!(
            "__global__ void k(int* out, int n) {{
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                {guarded}
            }}"
        )
    }

    pub fn out_elems(&self) -> usize {
        let total = self.blocks as i64 * self.threads as i64;
        ((total * self.scale.max(1) + self.offset) * self.width.max(1) + self.width + 64) as usize
    }
}

pub fn random_kernel() -> impl Strategy<Value = RandomKernel> {
    (
        1i64..4,  // scale
        0i64..32, // offset
        1i64..4,  // width
        any::<bool>(),
        1u32..12, // blocks
        prop::sample::select(vec![1u32, 2, 8, 32]),
    )
        .prop_flat_map(|(scale, offset, width, guard, blocks, threads)| {
            let total = blocks as i64 * threads as i64;
            (
                Just((scale, offset, width, guard, blocks, threads)),
                1i64..=total,
            )
        })
        .prop_map(
            |((scale, offset, width, guard, blocks, threads), n)| RandomKernel {
                scale,
                offset,
                width,
                guard,
                blocks,
                threads,
                n,
            },
        )
}

/// One random verifier subject: an indexing shape, a launch geometry, and
/// an allocation shortfall (elements removed from the exact footprint; 0
/// means the buffer fits exactly, >0 forces out-of-bounds traps).
#[derive(Debug, Clone)]
pub struct Subject {
    pub shape: Shape,
    pub blocks: u32,
    pub threads: u32,
    pub shortfall: u64,
}

#[derive(Debug, Clone)]
pub enum Shape {
    /// `out[(b·T + t) · stride]` — disjoint per-block footprints.
    Strided { stride: i64 },
    /// `out[t]` — every block writes the same window.
    BlockInvariant,
    /// `out[b·(T − overlap) + t]` — adjacent blocks share `overlap` elems.
    Halo { overlap: u32 },
    /// `out[id] = …; out[id + gap] = …` — second site shifted by `gap`.
    TwoSite { gap: i64 },
    /// `if (id < n) out[id] = …` — guarded tail, exact extent `n`.
    GuardedTail { quarters: i64 },
}

impl Subject {
    pub fn total(&self) -> i64 {
        self.blocks as i64 * self.threads as i64
    }

    /// Clamp shape parameters to the launch (halo overlap < threads).
    pub fn overlap(&self) -> i64 {
        match self.shape {
            Shape::Halo { overlap } => (overlap as i64).min(self.threads as i64 - 1).max(0),
            _ => 0,
        }
    }

    pub fn source(&self) -> String {
        let body = match &self.shape {
            Shape::Strided { stride } => format!(
                "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 out[id * {stride}] = id;"
            ),
            Shape::BlockInvariant => "out[threadIdx.x] = 1;".to_string(),
            Shape::Halo { .. } => format!(
                "out[blockIdx.x * (blockDim.x - {}) + threadIdx.x] = 1;",
                self.overlap()
            ),
            Shape::TwoSite { gap } => format!(
                "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 out[id] = id;
                 out[id + {gap}] = id;"
            ),
            Shape::GuardedTail { .. } => "int id = blockIdx.x * blockDim.x + threadIdx.x;
                 if (id < n) out[id] = id;"
                .to_string(),
        };
        let params = match self.shape {
            Shape::GuardedTail { .. } => "int* out, int n",
            _ => "int* out",
        };
        format!("__global__ void k({params}) {{ {body} }}")
    }

    /// Exact element footprint of all writes (before the shortfall).
    pub fn exact_extent(&self) -> i64 {
        let total = self.total();
        match &self.shape {
            Shape::Strided { stride } => (total - 1) * stride + 1,
            Shape::BlockInvariant => self.threads as i64,
            Shape::Halo { .. } => {
                (self.blocks as i64 - 1) * (self.threads as i64 - self.overlap())
                    + self.threads as i64
            }
            Shape::TwoSite { gap } => total + gap,
            Shape::GuardedTail { quarters } => (total * quarters / 4).max(1),
        }
    }

    pub fn n_arg(&self) -> Option<i64> {
        match self.shape {
            Shape::GuardedTail { .. } => Some(self.exact_extent()),
            _ => None,
        }
    }
}

pub fn subject() -> impl Strategy<Value = Subject> {
    let shape = prop_oneof![
        (1i64..4).prop_map(|stride| Shape::Strided { stride }),
        Just(Shape::BlockInvariant),
        (0u32..3).prop_map(|overlap| Shape::Halo { overlap }),
        (0i64..6).prop_map(|gap| Shape::TwoSite { gap }),
        (1i64..=4).prop_map(|quarters| Shape::GuardedTail { quarters }),
    ];
    (
        shape,
        1u32..6,
        prop::sample::select(vec![2u32, 4, 8]),
        0u64..3,
    )
        .prop_map(|(shape, blocks, threads, shortfall)| Subject {
            shape,
            blocks,
            threads,
            shortfall,
        })
}
