//! §2.3 microbenchmark — Allgather placement and balance.
//!
//! The design-space observation CuCC is built on: **balanced in-place**
//! Allgather consistently wins over out-of-place and imbalanced variants,
//! which is why the three-phase workflow is engineered to make balanced
//! in-place gathering legal.

use cucc_bench::{banner, fmt_time};
use cucc_net::{AllgatherAlgo, AllgatherPlacement, GatherPlan, GatherSegment, NetModel};
use cucc_trace::{Category, Timeline};

/// Plan one Allgather, move its bytes, record it, and read time and wire
/// traffic back off the recorded timeline.
fn run(n: usize, sizes: &[u64], placement: AllgatherPlacement) -> (f64, u64) {
    let total: u64 = sizes.iter().sum();
    let mut regions: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; total as usize]).collect();
    let mut views: Vec<&mut [u8]> = regions.iter_mut().map(|r| r.as_mut_slice()).collect();
    let plan = GatherPlan::new(
        sizes,
        &NetModel::infiniband_100g(),
        AllgatherAlgo::Ring,
        placement,
    );
    plan.apply(&mut views, &GatherSegment::contiguous(sizes));
    let mut tl = Timeline::new();
    plan.record(&mut tl, 0.0, "allgather");
    (tl.time_in(Category::Allgather), tl.wire_bytes())
}

fn main() {
    banner(
        "§2.3 micro",
        "Allgather placement × balance (ring, 100 Gb/s IB)",
    );
    for (nodes, total_mb) in [(2usize, 64u64), (8, 64), (8, 256), (32, 64)] {
        let total = total_mb << 20;
        let balanced: Vec<u64> = vec![total / nodes as u64; nodes];
        // Imbalanced: segment sizes proportional to rank+1 (the paper's
        // 2-node N/4 vs 3N/4 example generalized), same total.
        let weight_sum: u64 = (1..=nodes as u64).sum();
        let mut imbalanced: Vec<u64> = (1..=nodes as u64).map(|w| total * w / weight_sum).collect();
        let assigned: u64 = imbalanced.iter().sum();
        imbalanced[nodes - 1] += total - assigned;

        println!("\n{nodes} nodes, {total_mb} MiB total:");
        let mut rows = Vec::new();
        for (balance_name, sizes) in [("balanced", &balanced), ("imbalanced", &imbalanced)] {
            for (place_name, placement) in [
                ("in-place", AllgatherPlacement::InPlace),
                ("out-of-place", AllgatherPlacement::OutOfPlace),
            ] {
                let (t, wire) = run(nodes, sizes, placement);
                rows.push((format!("{balance_name:>10} {place_name:<12}"), t, wire));
            }
        }
        let best = rows
            .iter()
            .map(|(_, t, _)| *t)
            .fold(f64::INFINITY, f64::min);
        for (name, t, wire) in rows {
            let marker = if t == best { "  ← fastest" } else { "" };
            println!(
                "  {name} {:>12}  ({:>6.1} MiB wire){marker}",
                fmt_time(t),
                wire as f64 / (1 << 20) as f64
            );
        }
    }
    println!("\npaper: \"balanced-in-place Allgather consistently achieves the");
    println!("highest performance\" — CuCC uses it exclusively");
}
