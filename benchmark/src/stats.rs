//! Sample statistics and the small pieces of arithmetic the report is
//! built from: percentile selection, medians, the unattributed-time rows,
//! and the `VmHWM` line of `/proc/self/status`.

/// Nearest rank (1-based) of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).clamp(1, n.max(1))
}

/// Samples that lie beyond the `pct`-th percentile of `n`. A percentile is
/// worth reporting when at least ten do (choosing-metrics §1), so p90
/// needs 100 samples.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct).min(n)
}

/// Nearest-rank percentile of an unsorted sample (`0 < pct <= 100`).
/// `None` when the sample is empty.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Median with the two middle samples averaged for even counts (the same
/// value `statistics.median` gives). 0.0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The outside approximation of a composite call's self time: the
/// composite minus the parts the harness can call itself. Parts plus the
/// result equal the composite by construction; the result may be negative
/// when the parts ran slower in isolation than inside the composite. A
/// composite the workload never calls (0) has nothing to attribute.
pub fn unattributed(composite: f64, parts: &[f64]) -> f64 {
    if composite == 0.0 {
        return 0.0;
    }
    composite - parts.iter().sum::<f64>()
}

/// Whether `new` is worse than `old` by more than `bound` (a share of
/// `old`). `bound == 0` asks for exact equality.
pub fn worse_than(old: f64, new: f64, higher_is_better: bool, bound: f64) -> bool {
    if bound == 0.0 {
        return old.to_bits() != new.to_bits();
    }
    if higher_is_better {
        new < old * (1.0 - bound)
    } else {
        new > old * (1.0 + bound)
    }
}

/// Parse the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => value.checked_mul(1024),
        _ => None,
    }
}

/// Peak resident set of this process so far, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(20, 50), 10);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(0, 90), 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s, 100), Some(100.0));
        // Ten samples lie beyond the 90th of a hundred.
        assert_eq!(s.iter().filter(|&&v| v > 90.0).count(), 10);
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 90), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn parts_plus_unattributed_equal_the_composite() {
        let parts = [0.25, 0.125, 0.0625];
        let composite = 1.0;
        let rest = unattributed(composite, &parts);
        assert_eq!(rest, 0.5625);
        assert_eq!(parts.iter().sum::<f64>() + rest, composite);
        // Parts slower in isolation than inside the composite: negative,
        // reported as measured.
        assert!(unattributed(0.1, &[0.08, 0.05]) < 0.0);
        // A composite this workload never calls.
        assert_eq!(unattributed(0.0, &[0.08, 0.05]), 0.0);
    }

    #[test]
    fn bounds_are_relative_and_zero_means_exact() {
        assert!(!worse_than(1.0, 1.09, false, 0.10));
        assert!(worse_than(1.0, 1.11, false, 0.10));
        assert!(!worse_than(100.0, 91.0, true, 0.10));
        assert!(worse_than(100.0, 89.0, true, 0.10));
        assert!(!worse_than(0.5, 0.5, false, 0.0));
        assert!(worse_than(0.5, 0.5000001, false, 0.0));
    }

    #[test]
    fn vm_hwm_line_parses_to_bytes() {
        let status = "Name:\tcucc\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(51200 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tcucc\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
    }
}
