//! Figure 7 — Coverage evaluation for Allgather distributable.

use cucc_bench::banner;
use cucc_workloads::coverage_table;

fn main() {
    banner(
        "Figure 7",
        "Coverage evaluation for Allgather distributable",
    );
    println!(
        "{:<14} {:>8} {:>15} {:>9} {:>9}",
        "suite", "kernels", "distributable", "overlap", "indirect"
    );
    for row in coverage_table().expect("classification") {
        println!(
            "{:<14} {:>8} {:>15} {:>9} {:>9}",
            row.suite, row.kernels, row.distributable, row.overlap, row.indirect
        );
    }
    println!("\npaper: all 21 ViT+BERT kernels distributable; Hetero-Mark 8 of 13");
    println!("(4 overlapping write intervals, 1 indirect access)");
}
