//! Coverage audit (the paper's §7.1 study): classify all 34 coverage
//! kernels — 21 Triton-generated BERT/ViT kernels and 13 Hetero-Mark-style
//! CUDA kernels — with the Allgather-distributable analysis, printing the
//! per-kernel verdicts behind Figure 7.
//!
//! ```bash
//! cargo run --example coverage_audit
//! ```

use cucc::workloads::{
    classify_coverage, coverage_table, heteromark_kernels, triton_kernels, Expected,
};

fn label(e: Expected) -> &'static str {
    match e {
        Expected::Distributable => "distributable",
        Expected::Overlap => "overlap",
        Expected::Indirect => "indirect",
    }
}

fn main() {
    println!("=== Allgather-distributable coverage audit (Figure 7) ===\n");
    for (suite, kernels) in [
        ("Triton (BERT + ViT)", triton_kernels()),
        ("Hetero-Mark", heteromark_kernels()),
    ] {
        println!("{suite}:");
        for k in &kernels {
            let got = classify_coverage(k).expect("classification failed");
            let mark = if got == k.expected { ' ' } else { '!' };
            println!("  {mark} {:24} [{:11}] → {}", k.name, k.suite, label(got));
            assert_eq!(got, k.expected, "{} misclassified", k.name);
        }
        println!();
    }
    println!("summary (Figure 7):");
    let [vit, bert, hetero] = coverage_table().expect("classification failed");
    for (suite, d, total) in [
        (
            "Triton (BERT + ViT)",
            vit.distributable + bert.distributable,
            vit.kernels + bert.kernels,
        ),
        ("Hetero-Mark", hetero.distributable, hetero.kernels),
    ] {
        println!("  {suite:22}: {d}/{total} Allgather distributable");
    }
    println!("\npaper: ViT+BERT 21/21, Hetero-Mark 8/13 ✓");
}
