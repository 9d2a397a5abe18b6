//! The eight performance benchmarks of the paper's evaluation (§7.2–§7.4),
//! plus the Listing-1 running example.
//!
//! Six are named in the paper — Transpose, FIR, Kmeans, BinomialOption, EP,
//! GA — and two stand in for the unnamed remainder of the eight "GPU
//! programs previously used in other GPU migration projects": BlackScholes
//! and Conv2D (see DESIGN.md §7). Each benchmark carries
//!
//! * its mini-CUDA kernel source,
//! * a launch geometry per [`Scale`] (`Test` sizes run functionally in the
//!   test suite; `Paper` sizes feed the modeled performance sweeps),
//! * deterministic input data, and
//! * a pure-Rust reference mirroring the interpreter's numeric semantics
//!   (f64 intermediates, narrowing at stores) so distributed results verify
//!   bit-for-bit or within a tiny relative tolerance.

use cucc_ir::{LaunchConfig, Scalar, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for functional (interpreted, byte-exact) runs.
    Test,
    /// Paper-magnitude sizes for modeled performance sweeps.
    Paper,
}

/// A runnable benchmark instance.
pub trait Benchmark: Send + Sync {
    /// Display name (matches the paper's figures).
    fn name(&self) -> &'static str;
    /// Mini-CUDA kernel source.
    fn source(&self) -> String;
    /// Launch geometry.
    fn launch(&self) -> LaunchConfig;
    /// Initial contents of each buffer parameter, in parameter order.
    fn buffers(&self) -> Vec<Vec<u8>>;
    /// Scalar arguments, in parameter order.
    fn scalars(&self) -> Vec<Value>;
    /// Expected contents of each buffer parameter after one launch.
    fn reference(&self) -> Vec<Vec<u8>>;
    /// Element type for tolerant comparison (`None` ⇒ exact bytes).
    fn compare_elem(&self) -> Option<Scalar> {
        None
    }
    /// Relative tolerance when `compare_elem` is float.
    fn tolerance(&self) -> f64 {
        0.0
    }
}

/// All eight evaluation benchmarks at the given scale.
pub fn perf_suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Transpose::new(scale)),
        Box::new(Fir::new(scale)),
        Box::new(Kmeans::new(scale)),
        Box::new(BinomialOption::new(scale)),
        Box::new(Ep::new(scale)),
        Box::new(Ga::new(scale)),
        Box::new(BlackScholes::new(scale)),
        Box::new(Conv2d::new(scale)),
    ]
}

fn f32s(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn i32s(v: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

// =====================================================================
// VecCopy — Listing 1, the running example.
// =====================================================================

/// `dest[id] = src[id]` with the canonical tail guard.
#[derive(Debug, Clone)]
pub struct VecCopy {
    /// Elements copied.
    pub n: usize,
}

impl VecCopy {
    /// Listing 1's N = 1200 at test scale; 64 Mi at paper scale.
    pub fn new(scale: Scale) -> VecCopy {
        VecCopy {
            n: match scale {
                Scale::Test => 1200,
                Scale::Paper => 64 << 20,
            },
        }
    }
}

impl Benchmark for VecCopy {
    fn name(&self) -> &'static str {
        "VecCopy"
    }
    fn source(&self) -> String {
        "__global__ void vec_copy(char* src, char* dest, int n) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n)
                dest[id] = src[id];
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.n as u64, 256)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(1);
        let src: Vec<u8> = (0..self.n).map(|_| rng.gen()).collect();
        vec![src, vec![0u8; self.n]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.n as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let b = self.buffers();
        vec![b[0].clone(), b[0].clone()]
    }
}

// =====================================================================
// Transpose — memory movement through shared-memory tiles (§7.2, §7.4).
// =====================================================================

/// Tiled matrix transpose (`out = inᵀ`), 32×32 shared tiles.
#[derive(Debug, Clone)]
pub struct Transpose {
    /// Matrix dimension (multiple of 32).
    pub n: usize,
}

impl Transpose {
    /// 128×128 test, 4096×4096 paper — the paper-scale matrix (128 MiB of
    /// traffic) fits the Thread-Focused node's 512 MiB LLC but not the
    /// SIMD-Focused node's 38.5 MiB, reproducing §7.4's cache explanation
    /// for Transpose's CPU-vs-GPU behaviour.
    pub fn new(scale: Scale) -> Transpose {
        Transpose {
            n: match scale {
                Scale::Test => 128,
                Scale::Paper => 4096,
            },
        }
    }
}

impl Benchmark for Transpose {
    fn name(&self) -> &'static str {
        "Transpose"
    }
    fn source(&self) -> String {
        // Blocks tile the OUTPUT: block (bx, by) writes output rows
        // by·32..+32 — the write index is affine with blockIdx.y coefficient
        // 32n, so a grid row of blocks forms one dense Allgather chunk.
        "__global__ void transpose(float* in, float* out, int n) {
            __shared__ float tile[1024];
            tile[threadIdx.y * 32 + threadIdx.x]
                = in[(blockIdx.x * 32 + threadIdx.y) * n + blockIdx.y * 32 + threadIdx.x];
            __syncthreads();
            out[(blockIdx.y * 32 + threadIdx.y) * n + blockIdx.x * 32 + threadIdx.x]
                = tile[threadIdx.x * 32 + threadIdx.y];
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        let g = (self.n / 32) as u32;
        LaunchConfig::new((g, g), (32u32, 32u32))
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<f32> = (0..self.n * self.n)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        vec![f32s(&data), vec![0u8; self.n * self.n * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.n as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let n = self.n;
        let input: Vec<f32> = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut out = vec![0f32; n * n];
        for r in 0..n {
            for c in 0..n {
                out[r * n + c] = input[c * n + r];
            }
        }
        vec![bufs[0].clone(), f32s(&out)]
    }
}

// =====================================================================
// FIR — finite impulse response filter (§7.2: near-linear scaling).
// =====================================================================

/// `out[i] = Σ_t in[i+t]·coef[t]` — compute-heavy inner loop per thread.
#[derive(Debug, Clone)]
pub struct Fir {
    /// Output length.
    pub n: usize,
    /// Filter taps.
    pub taps: usize,
}

impl Fir {
    /// 8192×32 test; 4 Mi × 4096 paper.
    pub fn new(scale: Scale) -> Fir {
        match scale {
            Scale::Test => Fir { n: 8192, taps: 32 },
            Scale::Paper => Fir {
                n: 4 << 20,
                taps: 4096,
            },
        }
    }
}

impl Benchmark for Fir {
    fn name(&self) -> &'static str {
        "FIR"
    }
    fn source(&self) -> String {
        "__global__ void fir(float* in, float* coef, float* out, int n, int taps) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            float acc = 0.0f;
            for (int t = 0; t < taps; t++)
                acc += in[id + t] * coef[t];
            if (id < n)
                out[id] = acc;
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.n as u64, 256)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(3);
        // in is padded by taps + a full block so every thread's reads stay
        // in bounds (including tail-block threads past n).
        let pad = self.taps + 256;
        let input: Vec<f32> = (0..self.n + pad)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let coef: Vec<f32> = (0..self.taps).map(|_| rng.gen_range(-0.1..0.1)).collect();
        vec![f32s(&input), f32s(&coef), vec![0u8; self.n * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.n as i64), Value::I64(self.taps as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let input: Vec<f32> = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let coef: Vec<f32> = bufs[1]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut out = vec![0f32; self.n];
        for i in 0..self.n {
            let mut acc = 0.0f64;
            for t in 0..self.taps {
                acc += input[i + t] as f64 * coef[t] as f64;
            }
            out[i] = acc as f32;
        }
        vec![bufs[0].clone(), bufs[1].clone(), f32s(&out)]
    }
}

// =====================================================================
// Kmeans — membership assignment (§7.2: the 313-block walk-through).
// =====================================================================

/// Nearest-centroid assignment: one thread per point.
#[derive(Debug, Clone)]
pub struct Kmeans {
    /// Points.
    pub n: usize,
    /// Clusters.
    pub k: usize,
    /// Features per point.
    pub f: usize,
}

impl Kmeans {
    /// Paper scale reproduces §7.2's geometry exactly: 80 000 points / 256
    /// threads = **313 blocks**.
    pub fn new(scale: Scale) -> Kmeans {
        match scale {
            Scale::Test => Kmeans {
                n: 4096,
                k: 4,
                f: 4,
            },
            Scale::Paper => Kmeans {
                n: 80_000,
                k: 16,
                f: 8,
            },
        }
    }
}

impl Benchmark for Kmeans {
    fn name(&self) -> &'static str {
        "Kmeans"
    }
    fn source(&self) -> String {
        "__global__ void kmeans_membership(float* points, float* centers, int* membership,
                                           int n, int k, int f) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n) {
                int best = 0;
                float bestd = 1.0e30f;
                for (int c = 0; c < k; c++) {
                    float d = 0.0f;
                    for (int j = 0; j < f; j++) {
                        float diff = points[id * f + j] - centers[c * f + j];
                        d += diff * diff;
                    }
                    if (d < bestd) {
                        bestd = d;
                        best = c;
                    }
                }
                membership[id] = best;
            }
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.n as u64, 256)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(4);
        let points: Vec<f32> = (0..self.n * self.f)
            .map(|_| rng.gen_range(0.0..10.0))
            .collect();
        let centers: Vec<f32> = (0..self.k * self.f)
            .map(|_| rng.gen_range(0.0..10.0))
            .collect();
        vec![f32s(&points), f32s(&centers), vec![0u8; self.n * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![
            Value::I64(self.n as i64),
            Value::I64(self.k as i64),
            Value::I64(self.f as i64),
        ]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let points: Vec<f32> = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let centers: Vec<f32> = bufs[1]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut membership = vec![0i32; self.n];
        for i in 0..self.n {
            let mut best = 0i32;
            let mut bestd = 1.0e30f64;
            for c in 0..self.k {
                let mut d = 0.0f64;
                for j in 0..self.f {
                    // Mirror the kernel: f32 loads, f64 arithmetic, f32
                    // narrowing at the `diff`/`d` variables is absent (they
                    // are kernel locals — full f64 precision).
                    let diff = points[i * self.f + j] as f64 - centers[c * self.f + j] as f64;
                    d += diff * diff;
                }
                if d < bestd {
                    bestd = d;
                    best = c as i32;
                }
            }
            membership[i] = best;
        }
        vec![bufs[0].clone(), bufs[1].clone(), i32s(&membership)]
    }
}

// =====================================================================
// BinomialOption — serial recurrence per block (§7.4, §8.2: 55× gap).
// =====================================================================

/// One option per block: binomial-tree valuation with a per-thread local
/// array, written as a single scalar by the block's only thread.
#[derive(Debug, Clone)]
pub struct BinomialOption {
    /// Options (= blocks).
    pub options: usize,
    /// Time steps of the binomial tree.
    pub steps: usize,
}

impl BinomialOption {
    /// 16×64 test; 1024×2048 paper (the paper's 1024 GPU blocks, §8.2).
    pub fn new(scale: Scale) -> BinomialOption {
        match scale {
            Scale::Test => BinomialOption {
                options: 16,
                steps: 64,
            },
            Scale::Paper => BinomialOption {
                options: 1024,
                steps: 2048,
            },
        }
    }
}

impl Benchmark for BinomialOption {
    fn name(&self) -> &'static str {
        "BinomialOption"
    }
    fn source(&self) -> String {
        format!(
            "__global__ void binomial_option(float* price, float* result, int steps) {{
                float vals[{len}];
                if (threadIdx.x == 0) {{
                    float s = price[blockIdx.x];
                    float u = 1.01f;
                    for (int i = 0; i <= steps; i++)
                        vals[i] = fmaxf(s * powf(u, (float)(2 * i - steps)) - 100.0f, 0.0f);
                    for (int t = 0; t < steps; t++)
                        for (int i = 0; i < steps - t; i++)
                            vals[i] = (0.5f * vals[i + 1] + 0.5f * vals[i]) * 0.9995f;
                    result[blockIdx.x] = vals[0];
                }}
            }}",
            len = self.steps + 1
        )
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.options as u32, 1u32)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(5);
        let prices: Vec<f32> = (0..self.options)
            .map(|_| rng.gen_range(80.0..120.0))
            .collect();
        vec![f32s(&prices), vec![0u8; self.options * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.steps as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let prices: Vec<f32> = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let steps = self.steps;
        let mut result = vec![0f32; self.options];
        for (o, &price) in prices.iter().enumerate() {
            // Mirror the kernel exactly: vals is a *local f32 array* — every
            // write narrows to f32.
            let mut vals = vec![0f32; steps + 1];
            let s = price as f64;
            // `float u = 1.01f` declares an f32: the parser narrows the
            // initializer, so mirror that.
            let u = 1.01f32 as f64;
            for (i, v) in vals.iter_mut().enumerate() {
                let e = (2 * i as i64 - steps as i64) as f32 as f64;
                *v = (s * u.powf(e) - 100.0).max(0.0) as f32;
            }
            for t in 0..steps {
                for i in 0..steps - t {
                    vals[i] = ((0.5 * vals[i + 1] as f64 + 0.5 * vals[i] as f64) * 0.9995) as f32;
                }
            }
            result[o] = vals[0];
        }
        vec![bufs[0].clone(), f32s(&result)]
    }
}

// =====================================================================
// EP — embarrassingly parallel random-number accumulation (§7.4: GPUs win).
// =====================================================================

/// Per-thread LCG loop accumulating squared uniforms; 512 blocks at paper
/// scale — too few to feed a large CPU cluster.
#[derive(Debug, Clone)]
pub struct Ep {
    /// Blocks.
    pub blocks: usize,
    /// Threads per block.
    pub threads: usize,
    /// LCG iterations per thread.
    pub iters: usize,
}

impl Ep {
    /// 8×64×128 test; 512×256×8192 paper (the paper's 512 blocks).
    pub fn new(scale: Scale) -> Ep {
        match scale {
            Scale::Test => Ep {
                blocks: 8,
                threads: 64,
                iters: 128,
            },
            Scale::Paper => Ep {
                blocks: 512,
                threads: 256,
                iters: 8192,
            },
        }
    }
}

impl Benchmark for Ep {
    fn name(&self) -> &'static str {
        "EP"
    }
    fn source(&self) -> String {
        "__global__ void ep(float* sums, int iters, int seed) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            int s = seed + id;
            float acc = 0.0f;
            for (int i = 0; i < iters; i++) {
                s = (s * 1103515245 + 12345) & 2147483647;
                float x = (float)(s) / 2147483648.0f;
                acc += x * x;
            }
            sums[id] = acc;
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.blocks as u32, self.threads as u32)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        vec![vec![0u8; self.blocks * self.threads * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.iters as i64), Value::I64(20260131)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let total = self.blocks * self.threads;
        let mut sums = vec![0f32; total];
        for (id, sum) in sums.iter_mut().enumerate() {
            let mut s: i64 = 20260131 + id as i64;
            let mut acc = 0.0f64;
            for _ in 0..self.iters {
                s = (s.wrapping_mul(1103515245).wrapping_add(12345)) & 2147483647;
                let x = (s as f32) as f64 / 2147483648.0;
                acc += x * x;
            }
            *sum = acc as f32;
        }
        vec![f32s(&sums)]
    }
}

// =====================================================================
// GA — gene (sequence) alignment with per-block match counts (§7.3/§7.4).
// =====================================================================

/// Each thread scans a segment of the target for exact query matches; the
/// block reduces counts through shared memory and thread 0 writes one int.
#[derive(Debug, Clone)]
pub struct Ga {
    /// Blocks.
    pub blocks: usize,
    /// Threads per block.
    pub threads: usize,
    /// Segment length per thread.
    pub seg: usize,
    /// Query length.
    pub qlen: usize,
}

impl Ga {
    /// 8×64×16×4 test; 256×256×256×8 paper (the paper's 256 blocks).
    pub fn new(scale: Scale) -> Ga {
        match scale {
            Scale::Test => Ga {
                blocks: 8,
                threads: 64,
                seg: 16,
                qlen: 4,
            },
            Scale::Paper => Ga {
                blocks: 256,
                threads: 256,
                seg: 256,
                qlen: 8,
            },
        }
    }

    fn target_len(&self) -> usize {
        self.blocks * self.threads * self.seg + self.qlen
    }
}

impl Benchmark for Ga {
    fn name(&self) -> &'static str {
        "GA"
    }
    fn source(&self) -> String {
        "__global__ void ga(uchar* target, uchar* query, int* matches, int seg, int qlen) {
            __shared__ int partial[256];
            int tid = threadIdx.x;
            int base = (blockIdx.x * blockDim.x + tid) * seg;
            int count = 0;
            for (int i = 0; i < seg; i++) {
                int m = 1;
                for (int j = 0; j < qlen; j++) {
                    if (target[base + i + j] != query[j])
                        m = 0;
                }
                count += m;
            }
            partial[tid] = count;
            __syncthreads();
            if (tid == 0) {
                int total = 0;
                for (int t = 0; t < blockDim.x; t++)
                    total += partial[t];
                matches[blockIdx.x] = total;
            }
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::new(self.blocks as u32, self.threads as u32)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(6);
        // 4-letter alphabet: matches are rare but nonzero.
        let target: Vec<u8> = (0..self.target_len())
            .map(|_| rng.gen_range(0u8..4))
            .collect();
        let query: Vec<u8> = (0..self.qlen).map(|_| rng.gen_range(0u8..4)).collect();
        vec![target, query, vec![0u8; self.blocks * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.seg as i64), Value::I64(self.qlen as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let target = &bufs[0];
        let query = &bufs[1];
        let mut matches = vec![0i32; self.blocks];
        for (b, m) in matches.iter_mut().enumerate() {
            let mut total = 0i32;
            for t in 0..self.threads {
                let base = (b * self.threads + t) * self.seg;
                for i in 0..self.seg {
                    if (0..self.qlen).all(|j| target[base + i + j] == query[j]) {
                        total += 1;
                    }
                }
            }
            *m = total;
        }
        vec![bufs[0].clone(), bufs[1].clone(), i32s(&matches)]
    }
}

// =====================================================================
// BlackScholes — straight-line transcendental kernel (fully SIMD).
// =====================================================================

/// European option pricing averaged over a volatility scenario sweep —
/// compute-intensive per thread (the paper's workloads are sized for
/// single-GPU execution and therefore heavy, §8.1), two output buffers,
/// tail-divergent guard.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    /// Options priced.
    pub n: usize,
    /// Volatility scenarios averaged per option.
    pub scenarios: usize,
}

impl BlackScholes {
    /// 4096×4 test; 2 Mi × 32 paper.
    pub fn new(scale: Scale) -> BlackScholes {
        match scale {
            Scale::Test => BlackScholes {
                n: 4096,
                scenarios: 4,
            },
            Scale::Paper => BlackScholes {
                n: 2 << 20,
                scenarios: 32,
            },
        }
    }
}

impl Benchmark for BlackScholes {
    fn name(&self) -> &'static str {
        "BlackScholes"
    }
    fn source(&self) -> String {
        "__global__ void black_scholes(float* spot, float* strike, float* years,
                                       float* call, float* put, int n, float r, float v,
                                       int scenarios) {
            int id = blockDim.x * blockIdx.x + threadIdx.x;
            if (id < n) {
                float s = spot[id];
                float k = strike[id];
                float t = years[id];
                float disc = expf(0.0f - r * t);
                float acc = 0.0f;
                for (int sc = 0; sc < scenarios; sc++) {
                    float vs = v + 0.01f * (float)(sc);
                    float srt = vs * sqrtf(t);
                    float d1 = (logf(s / k) + (r + 0.5f * vs * vs) * t) / srt;
                    float d2 = d1 - srt;
                    float nd1 = 0.5f * (1.0f + erff(d1 / 1.4142135623730951f));
                    float nd2 = 0.5f * (1.0f + erff(d2 / 1.4142135623730951f));
                    acc += s * nd1 - k * disc * nd2;
                }
                float c = acc / (float)(scenarios);
                call[id] = c;
                put[id] = c - s + k * disc;
            }
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.n as u64, 256)
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(7);
        let spot: Vec<f32> = (0..self.n).map(|_| rng.gen_range(10.0..100.0)).collect();
        let strike: Vec<f32> = (0..self.n).map(|_| rng.gen_range(10.0..100.0)).collect();
        let years: Vec<f32> = (0..self.n).map(|_| rng.gen_range(0.2..3.0)).collect();
        vec![
            f32s(&spot),
            f32s(&strike),
            f32s(&years),
            vec![0u8; self.n * 4],
            vec![0u8; self.n * 4],
        ]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![
            Value::I64(self.n as i64),
            Value::F64(0.02),
            Value::F64(0.3),
            Value::I64(self.scenarios as i64),
        ]
    }
    fn compare_elem(&self) -> Option<Scalar> {
        Some(Scalar::F32)
    }
    fn tolerance(&self) -> f64 {
        1e-5
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let read = |i: usize| -> Vec<f32> {
            bufs[i]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let (spot, strike, years) = (read(0), read(1), read(2));
        // Scalar params are declared float in the kernel, so they narrow to
        // f32 on read.
        let r = 0.02f32 as f64;
        let v = 0.3f32 as f64;
        let mut call = vec![0f32; self.n];
        let mut put = vec![0f32; self.n];
        for i in 0..self.n {
            let s = spot[i] as f64;
            let k = strike[i] as f64;
            let t = years[i] as f64;
            let disc = (-r * t).exp();
            let mut acc = 0.0f64;
            for sc in 0..self.scenarios {
                let vs = v + 0.01 * (sc as f32 as f64);
                let srt = vs * t.sqrt();
                let d1 = ((s / k).ln() + (r + 0.5 * vs * vs) * t) / srt;
                let d2 = d1 - srt;
                let nd1 = 0.5 * (1.0 + cucc_exec::interp::erf(d1 / std::f64::consts::SQRT_2));
                let nd2 = 0.5 * (1.0 + cucc_exec::interp::erf(d2 / std::f64::consts::SQRT_2));
                acc += s * nd1 - k * disc * nd2;
            }
            let c = acc / self.scenarios as f32 as f64;
            call[i] = c as f32;
            put[i] = (c as f32 as f64 - s + k * disc) as f32;
        }
        vec![
            bufs[0].clone(),
            bufs[1].clone(),
            bufs[2].clone(),
            f32s(&call),
            f32s(&put),
        ]
    }
}

// =====================================================================
// Conv2D — 5×5 stencil over a 2-D grid (row-chunked distribution).
// =====================================================================

/// Dense 2-D convolution with a padded input.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Output width = height.
    pub n: usize,
    /// Filter size (odd).
    pub fsize: usize,
}

impl Conv2d {
    /// 128×3 test; 4096×5 paper.
    pub fn new(scale: Scale) -> Conv2d {
        match scale {
            Scale::Test => Conv2d { n: 128, fsize: 3 },
            Scale::Paper => Conv2d { n: 4096, fsize: 5 },
        }
    }

    fn padded(&self) -> usize {
        self.n + self.fsize - 1
    }
}

impl Benchmark for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2D"
    }
    fn source(&self) -> String {
        "__global__ void conv2d(float* in, float* filt, float* out,
                                int width, int fsize) {
            int x = blockIdx.x * blockDim.x + threadIdx.x;
            int y = blockIdx.y * blockDim.y + threadIdx.y;
            int pw = width + fsize - 1;
            float acc = 0.0f;
            for (int fy = 0; fy < fsize; fy++) {
                for (int fx = 0; fx < fsize; fx++) {
                    acc += in[(y + fy) * pw + x + fx] * filt[fy * fsize + fx];
                }
            }
            out[y * width + x] = acc;
        }"
        .into()
    }
    fn launch(&self) -> LaunchConfig {
        let g = (self.n / 32) as u32;
        LaunchConfig::new((g, g), (32u32, 32u32))
    }
    fn buffers(&self) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(8);
        let p = self.padded();
        let input: Vec<f32> = (0..p * p).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let filt: Vec<f32> = (0..self.fsize * self.fsize)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        vec![f32s(&input), f32s(&filt), vec![0u8; self.n * self.n * 4]]
    }
    fn scalars(&self) -> Vec<Value> {
        vec![Value::I64(self.n as i64), Value::I64(self.fsize as i64)]
    }
    fn reference(&self) -> Vec<Vec<u8>> {
        let bufs = self.buffers();
        let p = self.padded();
        let input: Vec<f32> = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let filt: Vec<f32> = bufs[1]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut out = vec![0f32; self.n * self.n];
        for y in 0..self.n {
            for x in 0..self.n {
                let mut acc = 0.0f64;
                for fy in 0..self.fsize {
                    for fx in 0..self.fsize {
                        acc +=
                            input[(y + fy) * p + x + fx] as f64 * filt[fy * self.fsize + fx] as f64;
                    }
                }
                out[y * self.n + x] = acc as f32;
            }
        }
        vec![bufs[0].clone(), bufs[1].clone(), f32s(&out)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_reference_check, setup_args};
    use cucc_core::compile_source;
    use cucc_gpu_model::{GpuDevice, GpuSpec};

    /// Every benchmark, executed on the GPU reference device, must match
    /// its pure-Rust reference.
    #[test]
    fn gpu_reference_matches_rust_reference() {
        let mut suite = perf_suite(Scale::Test);
        suite.push(Box::new(VecCopy::new(Scale::Test)));
        for bench in &suite {
            let ck =
                compile_source(&bench.source()).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            let mut gpu = GpuDevice::new(GpuSpec::a100());
            let (args, handles) = setup_args(bench.as_ref(), &ck.kernel, &mut gpu).unwrap();
            gpu.launch(&ck.kernel, bench.launch(), &args)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            run_reference_check(bench.as_ref(), &mut gpu, &handles)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// All eight perf benchmarks must be Allgather distributable (they are
    /// the programs the paper runs with the three-phase workflow).
    #[test]
    fn perf_suite_is_distributable() {
        for bench in perf_suite(Scale::Test) {
            let ck = compile_source(&bench.source()).unwrap();
            assert!(
                ck.is_distributable(),
                "{} should be distributable: {:?}",
                bench.name(),
                ck.analysis.verdict.reasons()
            );
        }
    }

    /// SIMD classes match the paper's characterizations (§8.2–§8.3).
    #[test]
    fn simd_classes_match_paper_narrative() {
        use cucc_analysis::SimdClass;
        let class_of = |b: &dyn Benchmark| compile_source(&b.source()).unwrap().analysis.simd.class;
        // Transpose: "highly amenable to SIMD optimization".
        assert_eq!(class_of(&Transpose::new(Scale::Test)), SimdClass::Full);
        // BlackScholes with the scenario recurrence → Scalar.
        assert_eq!(class_of(&BlackScholes::new(Scale::Test)), SimdClass::Scalar);
        // BinomialOption: "non-parallel for-loop … challenging to apply
        // SIMD" → Scalar.
        assert_eq!(
            class_of(&BinomialOption::new(Scale::Test)),
            SimdClass::Scalar
        );
        // EP/GA: "for-loops that cannot be optimized with SIMD".
        assert_eq!(class_of(&Ep::new(Scale::Test)), SimdClass::Scalar);
        assert_eq!(class_of(&Ga::new(Scale::Test)), SimdClass::Scalar);
        // FIR: accumulator recurrence → Scalar.
        assert_eq!(class_of(&Fir::new(Scale::Test)), SimdClass::Scalar);
    }

    /// Kmeans at paper scale reproduces §7.2's block arithmetic.
    #[test]
    fn kmeans_paper_geometry() {
        let km = Kmeans::new(Scale::Paper);
        assert_eq!(km.launch().num_blocks(), 313);
    }

    /// EP/GA paper block counts match §7.4.
    #[test]
    fn ep_ga_paper_block_counts() {
        assert_eq!(Ep::new(Scale::Paper).launch().num_blocks(), 512);
        assert_eq!(Ga::new(Scale::Paper).launch().num_blocks(), 256);
        assert_eq!(
            BinomialOption::new(Scale::Paper).launch().num_blocks(),
            1024
        );
    }

    /// Deterministic inputs: two constructions give identical data.
    #[test]
    fn inputs_deterministic() {
        let a = Fir::new(Scale::Test);
        let b = Fir::new(Scale::Test);
        assert_eq!(a.buffers(), b.buffers());
        assert_eq!(a.reference(), b.reference());
        assert_eq!(
            Transpose::new(Scale::Test).buffers(),
            Transpose::new(Scale::Test).buffers()
        );
    }
}
