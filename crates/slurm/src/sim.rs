//! Discrete-event FIFO partition scheduler (a minimal Slurm).

/// Whether a partition serves CPU or GPU nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// CPU partition.
    Cpu,
    /// GPU partition.
    Gpu,
}

/// One scheduling partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Partition name (e.g. `cpu-small`).
    pub name: String,
    /// Nodes in the partition.
    pub nodes: u32,
    /// CPU or GPU.
    pub kind: PartitionKind,
}

/// A job submitted to one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Submission time, seconds.
    pub arrival: f64,
    /// Nodes requested.
    pub nodes: u32,
    /// Execution time once started, seconds.
    pub runtime: f64,
}

/// Scheduling outcome of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// When the job started.
    pub start: f64,
    /// Waiting time (`start − arrival`).
    pub wait: f64,
    /// Completion time.
    pub end: f64,
}

/// Run strict-FIFO scheduling of `jobs` (must be sorted by arrival) on a
/// partition. No backfill: the queue head blocks smaller jobs behind it,
/// as in the paper's wait-time measurements.
///
/// # Panics
/// Panics if a job requests more nodes than the partition has.
pub fn simulate_fifo(partition: &Partition, jobs: &[Job]) -> Vec<JobOutcome> {
    for w in jobs.windows(2) {
        debug_assert!(w[0].arrival <= w[1].arrival, "jobs must be arrival-sorted");
    }
    for j in jobs {
        assert!(
            j.nodes <= partition.nodes,
            "job requests {} nodes > partition {}",
            j.nodes,
            partition.nodes
        );
    }
    // running: (end_time, nodes) — small enough to scan.
    let mut running: Vec<(f64, u32)> = Vec::new();
    let mut free = partition.nodes;
    let mut out = Vec::with_capacity(jobs.len());
    let mut clock: f64;
    // Strict FIFO: jobs *start* in submission order, so each job's start is
    // bounded below by its predecessor's start (head-of-line blocking).
    let mut prev_start = 0.0f64;
    for job in jobs {
        clock = job.arrival.max(prev_start);
        // Release everything that finished before this arrival.
        running.retain(|&(end, n)| {
            if end <= clock {
                free += n;
                false
            } else {
                true
            }
        });
        // FIFO: this job must start before any later job, so we only need
        // to find when enough nodes free up for *it* (all earlier jobs are
        // already placed — strict FIFO with arrival-ordered processing).
        while free < job.nodes {
            // Advance to the next completion.
            let (next_end_idx, &(next_end, _)) = running
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                .expect("waiting for nodes but nothing is running");
            clock = clock.max(next_end);
            free += running[next_end_idx].1;
            running.swap_remove(next_end_idx);
        }
        free -= job.nodes;
        prev_start = clock;
        running.push((clock + job.runtime, job.nodes));
        out.push(JobOutcome {
            start: clock,
            wait: clock - job.arrival,
            end: clock + job.runtime,
        });
    }
    out
}

/// Mean of the waiting times.
pub fn mean_wait(outcomes: &[JobOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(|o| o.wait).sum::<f64>() / outcomes.len() as f64
}

/// Median of the waiting times.
pub fn median_wait(outcomes: &[JobOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let mut waits: Vec<f64> = outcomes.iter().map(|o| o.wait).collect();
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    waits[waits.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(nodes: u32) -> Partition {
        Partition {
            name: "test".into(),
            nodes,
            kind: PartitionKind::Cpu,
        }
    }

    #[test]
    fn empty_partition_runs_immediately() {
        let jobs = vec![
            Job {
                arrival: 0.0,
                nodes: 1,
                runtime: 10.0,
            },
            Job {
                arrival: 1.0,
                nodes: 1,
                runtime: 10.0,
            },
        ];
        let out = simulate_fifo(&part(4), &jobs);
        assert_eq!(out[0].wait, 0.0);
        assert_eq!(out[1].wait, 0.0);
    }

    #[test]
    fn saturation_queues_jobs() {
        // One node, back-to-back jobs.
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job {
                arrival: i as f64,
                nodes: 1,
                runtime: 10.0,
            })
            .collect();
        let out = simulate_fifo(&part(1), &jobs);
        assert_eq!(out[0].wait, 0.0);
        assert_eq!(out[1].start, 10.0);
        assert_eq!(out[2].start, 20.0);
        assert_eq!(out[3].wait, 30.0 - 3.0);
    }

    #[test]
    fn multi_node_jobs_block_fifo() {
        // Big job at the head blocks a small one (no backfill).
        let jobs = vec![
            Job {
                arrival: 0.0,
                nodes: 2,
                runtime: 10.0,
            },
            Job {
                arrival: 1.0,
                nodes: 2,
                runtime: 5.0,
            }, // needs both nodes
            Job {
                arrival: 2.0,
                nodes: 1,
                runtime: 1.0,
            }, // queued behind
        ];
        let out = simulate_fifo(&part(2), &jobs);
        assert_eq!(out[1].start, 10.0);
        // FIFO: the 1-node job starts only after the 2-node job got placed.
        assert!(out[2].start >= 10.0);
    }

    #[test]
    fn release_makes_room() {
        let jobs = vec![
            Job {
                arrival: 0.0,
                nodes: 3,
                runtime: 5.0,
            },
            Job {
                arrival: 6.0,
                nodes: 4,
                runtime: 5.0,
            },
        ];
        let out = simulate_fifo(&part(4), &jobs);
        assert_eq!(out[1].wait, 0.0, "nodes released before arrival");
    }

    #[test]
    fn stats_helpers() {
        let out = vec![
            JobOutcome {
                start: 0.0,
                wait: 0.0,
                end: 1.0,
            },
            JobOutcome {
                start: 0.0,
                wait: 10.0,
                end: 1.0,
            },
            JobOutcome {
                start: 0.0,
                wait: 2.0,
                end: 1.0,
            },
        ];
        assert!((mean_wait(&out) - 4.0).abs() < 1e-12);
        assert_eq!(median_wait(&out), 2.0);
        assert_eq!(mean_wait(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_panics() {
        let jobs = vec![Job {
            arrival: 0.0,
            nodes: 9,
            runtime: 1.0,
        }];
        simulate_fifo(&part(4), &jobs);
    }
}
