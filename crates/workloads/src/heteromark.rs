//! Coverage suite 2: Hetero-Mark-style hand-written CUDA kernels (§7.1).
//!
//! Figure 7: of the 13 kernels, **8 are Allgather distributable**, **4 have
//! overlapping write intervals** (atomic histograms/scatters or halo
//! writes), and **1 uses indirect memory access** that defeats static
//! analysis.

use crate::triton::{CoverageKernel, Expected};
use cucc_ir::{LaunchConfig, Value};

fn k(
    name: &'static str,
    source: &str,
    launch: LaunchConfig,
    buffer_bytes: Vec<usize>,
    scalars: Vec<Value>,
    expected: Expected,
) -> CoverageKernel {
    CoverageKernel {
        name,
        suite: "Hetero-Mark",
        source: source.to_string(),
        launch,
        buffer_bytes,
        scalars,
        expected,
    }
}

/// The 13 Hetero-Mark-style kernels.
pub fn heteromark_kernels() -> Vec<CoverageKernel> {
    let d = Expected::Distributable;
    let n = 16384usize;
    let f4 = 4usize;
    let flat = LaunchConfig::cover1(n as u64, 256);

    vec![
        // ------- 8 distributable -------
        k(
            "hm_aes_round",
            // One 16-byte state per thread: sub-bytes-style mixing written
            // to a dense per-thread range.
            "__global__ void aes_round(uchar* in, uchar* key, uchar* out, int nstates) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < nstates) {
                    for (int b = 0; b < 16; b++) {
                        int v = in[id * 16 + b];
                        v = ((v << 1) ^ (v >> 7) ^ key[b]) & 255;
                        out[id * 16 + b] = v;
                    }
                }
            }",
            LaunchConfig::cover1(1024, 128),
            vec![1024 * 16, 16, 1024 * 16],
            vec![Value::I64(1024)],
            d,
        ),
        k(
            "hm_fir",
            "__global__ void fir(float* in, float* coef, float* out, int n, int taps) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int t = 0; t < taps; t++)
                    acc += in[id + t] * coef[t];
                if (id < n)
                    out[id] = acc;
            }",
            flat,
            vec![(n + 256 + 32) * f4, 32 * f4, n * f4],
            vec![Value::I64(n as i64), Value::I64(32)],
            d,
        ),
        k(
            "hm_kmeans",
            "__global__ void kmeans(float* pts, float* ctr, int* mem, int n, int kc, int f) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    int best = 0;
                    float bestd = 1.0e30f;
                    for (int c = 0; c < kc; c++) {
                        float dd = 0.0f;
                        for (int j = 0; j < f; j++) {
                            float t = pts[id * f + j] - ctr[c * f + j];
                            dd += t * t;
                        }
                        if (dd < bestd) {
                            bestd = dd;
                            best = c;
                        }
                    }
                    mem[id] = best;
                }
            }",
            flat,
            vec![n * 4 * f4, 8 * 4 * f4, n * 4],
            vec![Value::I64(n as i64), Value::I64(8), Value::I64(4)],
            d,
        ),
        k(
            "hm_ep",
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
            }",
            LaunchConfig::new(64u32, 128u32),
            vec![64 * 128 * f4],
            vec![Value::I64(64), Value::I64(7)],
            d,
        ),
        k(
            "hm_ga",
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
            }",
            LaunchConfig::new(16u32, 64u32),
            vec![16 * 64 * 16 + 4, 4, 16 * 4],
            vec![Value::I64(16), Value::I64(4)],
            d,
        ),
        k(
            "hm_blackscholes",
            "__global__ void bs(float* spot, float* strike, float* call, int n, float r) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    float d = logf(spot[id] / strike[id]) + r;
                    call[id] = spot[id] * 0.5f * (1.0f + erff(d));
                }
            }",
            flat,
            vec![n * f4, n * f4, n * f4],
            vec![Value::I64(n as i64), Value::F64(0.05)],
            d,
        ),
        k(
            "hm_background_extract",
            // BE: per-pixel foreground mask, branch-free select.
            "__global__ void be(uchar* frame, uchar* bg, uchar* mask, int n, int thr) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) {
                    int diff = frame[id] - bg[id];
                    mask[id] = (diff > thr || 0 - diff > thr) ? 255 : 0;
                }
            }",
            flat,
            vec![n, n, n],
            vec![Value::I64(n as i64), Value::I64(16)],
            d,
        ),
        k(
            "hm_transpose",
            "__global__ void transpose(float* in, float* out, int n) {
                __shared__ float tile[1024];
                tile[threadIdx.y * 32 + threadIdx.x]
                    = in[(blockIdx.x * 32 + threadIdx.y) * n + blockIdx.y * 32 + threadIdx.x];
                __syncthreads();
                out[(blockIdx.y * 32 + threadIdx.y) * n + blockIdx.x * 32 + threadIdx.x]
                    = tile[threadIdx.x * 32 + threadIdx.y];
            }",
            LaunchConfig::new((4u32, 4u32), (32u32, 32u32)),
            vec![128 * 128 * f4, 128 * 128 * f4],
            vec![Value::I64(128)],
            d,
        ),
        // ------- 4 overlapping-write -------
        k(
            "hm_histogram",
            "__global__ void hist(uint* bins, uchar* data, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n)
                    atomicAdd(&bins[data[id]], 1);
            }",
            flat,
            vec![256 * 4, n],
            vec![Value::I64(n as i64)],
            Expected::Overlap,
        ),
        k(
            "hm_pagerank_push",
            "__global__ void pr(float* rank, int* dst, float* next, int nedges) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < nedges)
                    atomicAdd(&next[dst[id]], rank[id]);
            }",
            flat,
            vec![n * f4, n * 4, 1024 * f4],
            vec![Value::I64(n as i64)],
            Expected::Overlap,
        ),
        k(
            "hm_knn_min",
            "__global__ void knn(int* best, float* dist, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n)
                    atomicMin(&best[0], (int)(dist[id] * 1000.0f));
            }",
            flat,
            vec![4, n * f4],
            vec![Value::I64(n as i64)],
            Expected::Overlap,
        ),
        k(
            "hm_sliding_window",
            // Halo write: consecutive blocks overlap by one element. The
            // distributable analysis accepts the affine form, but the kernel
            // verifier proves a MUST-level inter-block write-write race
            // (adjacent blocks share `out[b*(blockDim.x-1)+blockDim.x-1]`),
            // so the planner vetoes distribution before it derives any
            // region (classified Overlap).
            "__global__ void sw(float* out) {
                int id = blockIdx.x * (blockDim.x - 1) + threadIdx.x;
                out[id] = 1.0f;
            }",
            LaunchConfig::new(32u32, 64u32),
            vec![(32 * 63 + 64) * f4],
            vec![],
            Expected::Overlap,
        ),
        // ------- 1 indirect -------
        k(
            "hm_scatter_bst",
            "__global__ void scatter(int* keys, int* vals, int* table, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n)
                    table[keys[id]] = vals[id];
            }",
            flat,
            vec![n * 4, n * 4, n * 4],
            vec![Value::I64(n as i64)],
            Expected::Indirect,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_kernels_with_figure7_split() {
        let ks = heteromark_kernels();
        assert_eq!(ks.len(), 13);
        let count = |e: Expected| ks.iter().filter(|k| k.expected == e).count();
        assert_eq!(count(Expected::Distributable), 8);
        assert_eq!(count(Expected::Overlap), 4);
        assert_eq!(count(Expected::Indirect), 1);
    }

    #[test]
    fn all_parse_and_validate() {
        for k in heteromark_kernels() {
            let kernel =
                cucc_ir::parse_kernel(&k.source).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            cucc_ir::validate(&kernel).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }
}
