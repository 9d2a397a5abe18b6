//! The serving layer's three load-bearing properties (ISSUE 10):
//!
//! 1. admission control is typed: a tenant at its queue-depth limit gets
//!    `MigrateError::Rejected` with the tenant/depth/limit that tripped,
//!    and the cluster is untouched;
//! 2. the weighted deficit scheduler never starves a tenant — every
//!    admitted job completes, for every tenant, under skewed overload;
//! 3. a `kill:`+`join:` fault plan mid-stream changes *when* jobs run but
//!    not *what* they compute: per-tenant memory digests are bit-identical
//!    to the fault-free run;
//! 4. the server owns no planner (ISSUE 23): a job's service time is its
//!    schedule at its allocated node count, read through the cluster's one
//!    planning door, so each distinct key is planned once — by whichever of
//!    the service lookup and the launch asks first.

use cucc::cluster::ClusterSpec;
use cucc::core::schedule::plan_schedule;
use cucc::core::{
    compile_source, synthetic_stream, DeadlineClass, JobServer, JobSpec, MigrateError, RunOptions,
    ServeConfig, ServePolicy,
};
use cucc::exec::{Arg, BufferId};
use cucc::ir::LaunchConfig;
use cucc::trace::Track;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn server(nodes: u32, config: ServeConfig) -> JobServer {
    JobServer::new(ClusterSpec::simd_focused().with_nodes(nodes), config).unwrap()
}

#[test]
fn queue_full_rejection_is_typed() {
    let mut srv = server(
        2,
        ServeConfig {
            policy: ServePolicy::Fair,
            queue_depth: 3,
            ..ServeConfig::default()
        },
    );
    let spec = |i: usize| JobSpec {
        tenant: 9,
        class: DeadlineClass::Interactive,
        kernel: 0,
        elems: 512,
        nodes: 1,
        arrival: i as f64 * 1e-7,
        scale: 1.5,
    };
    for i in 0..3 {
        srv.submit(&spec(i)).unwrap();
    }
    match srv.submit(&spec(3)).unwrap_err() {
        MigrateError::Rejected {
            tenant,
            depth,
            limit,
        } => assert_eq!((tenant, depth, limit), (9, 3, 3)),
        other => panic!("expected Rejected, got {other}"),
    }
    // Another tenant is unaffected by tenant 9's backlog.
    srv.submit(&JobSpec {
        tenant: 1,
        ..spec(4)
    })
    .unwrap();
}

#[test]
fn overload_rejections_surface_in_the_report() {
    // Arrivals far faster than service: a shallow queue must reject.
    let jobs = synthetic_stream(300, 4, 3, 1e-8);
    let mut srv = server(
        2,
        ServeConfig {
            policy: ServePolicy::Fair,
            queue_depth: 4,
            ..ServeConfig::default()
        },
    );
    let report = srv.run(&jobs).unwrap();
    assert!(report.rejected > 0, "shallow queue under overload rejects");
    assert_eq!(report.submitted, 300);
    assert_eq!(report.completed, report.admitted, "admitted jobs all run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under skewed overloaded arrivals, the fair scheduler completes
    /// every admitted job of every tenant: nobody starves.
    #[test]
    fn no_tenant_starves_under_skewed_arrivals(
        jobs in 40usize..120,
        tenants in 2u32..8,
        nodes in 2u32..6,
        seed in 1u64..5000,
    ) {
        let stream = synthetic_stream(jobs, tenants, seed, 1e-7);
        let mut srv = server(nodes, ServeConfig {
            policy: ServePolicy::Fair,
            queue_depth: 0,
            ..ServeConfig::default()
        });
        let report = srv.run(&stream).unwrap();
        prop_assert_eq!(report.rejected, 0);
        prop_assert_eq!(report.completed, jobs);
        for t in &report.per_tenant {
            prop_assert_eq!(
                t.completed, t.admitted,
                "tenant {} starved: {}/{} completed", t.tenant, t.completed, t.admitted
            );
            prop_assert!(t.p99_total.is_finite());
        }
    }
}

#[test]
fn mid_stream_kill_and_join_is_bit_identical_to_fault_free() {
    let jobs = synthetic_stream(80, 5, 17, 5e-5);
    let run = |faulted: bool| {
        let mut options = RunOptions::builder();
        if faulted {
            // Node 1 dies a few launches in and rejoins later; node 0
            // survives throughout. Placement capacity resizes at each
            // membership epoch.
            options = options
                .fault("kill:node=1@t=0.00002")
                .unwrap()
                .fault("join:node=1@t=0.00008")
                .unwrap();
        }
        let mut srv = server(
            3,
            ServeConfig {
                policy: ServePolicy::Fair,
                queue_depth: 0,
                options: options.build(),
            },
        );
        let report = srv.run(&jobs).unwrap();
        assert_eq!(report.completed, 80, "faulted={faulted}");
        (report.digests.clone(), report.node_failures)
    };
    let (clean, clean_failures) = run(false);
    let (faulted, faulted_failures) = run(true);
    assert_eq!(clean_failures, 0);
    assert!(faulted_failures > 0, "the kill actually fired");
    assert_eq!(
        clean, faulted,
        "admitted jobs complete bit-identically across the fault"
    );
}

/// Every job's service time on the serving clock is `plan_schedule` at its
/// `k` nodes, called directly; the one cache plans each distinct key once
/// (the `k = 4` service shape of a 4-node server *is* the launch's key);
/// and sharing entries between the two kinds of lookup changes no byte of
/// any tenant's memory.
#[test]
fn service_times_are_the_planner_s_and_each_key_is_planned_once() {
    const NODES: u32 = 4;
    let mut jobs = synthetic_stream(120, 6, 23, 2e-6);
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let config = || ServeConfig {
        policy: ServePolicy::Fair,
        queue_depth: 0,
        ..ServeConfig::default()
    };
    let mut srv = server(NODES, config());
    let report = srv.run(&jobs).unwrap();
    assert_eq!(report.completed, jobs.len());

    // The server allocates `(x, y)` per (tenant, elems) in arrival order.
    let mut buffers: BTreeMap<(u32, usize), u32> = BTreeMap::new();
    for job in &jobs {
        let next = 2 * buffers.len() as u32;
        buffers.entry((job.tenant, job.elems)).or_insert(next);
    }
    let kernels: Vec<_> = JobServer::KERNELS
        .iter()
        .map(|src| compile_source(src).unwrap())
        .collect();
    let cluster = srv.cluster();
    let mut keys = BTreeSet::new();
    let mut placed = 0;
    for span in srv.timeline().spans() {
        if span.track != Track::Place {
            continue;
        }
        // "job {idx} x{k} (tenant {t})": idx counts admissions, and nothing
        // was rejected, so it indexes the arrival-sorted stream.
        let mut words = span.name.split(' ');
        let idx: usize = words.nth(1).unwrap().parse().unwrap();
        let k: usize = words.next().unwrap()[1..].parse().unwrap();
        let job = &jobs[idx];
        let x = buffers[&(job.tenant, job.elems)];
        let args = [
            Arg::Buffer(BufferId(x)),
            Arg::Buffer(BufferId(x + 1)),
            Arg::float(job.scale),
            Arg::int(job.elems as i64),
        ];
        let direct = plan_schedule(
            &kernels[job.kernel % kernels.len()],
            LaunchConfig::cover1(job.elems as u64, 128),
            &args,
            cluster.sim().node(0),
            cluster.spec(),
            k,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(span.dur.to_bits(), direct.time().to_bits(), "{}", span.name);
        let key = |nodes: usize| (job.tenant, job.elems, job.scale.to_bits(), nodes);
        keys.extend([key(k), key(NODES as usize)]);
        placed += 1;
    }
    assert_eq!(placed, jobs.len());

    let stats = cluster.schedule_cache().stats();
    assert_eq!(
        report.cache, stats,
        "the report carries the one cache's counters"
    );
    assert_eq!(
        stats.misses,
        keys.len() as u64,
        "each distinct key plans once"
    );
    assert_eq!(stats.entries, keys.len());
    assert!(
        stats.hits + stats.misses >= 2 * jobs.len() as u64,
        "a service lookup and a launch lookup per job: {stats:?}"
    );
    let service: u64 = report
        .per_tenant
        .iter()
        .map(|t| t.cache_hits + t.cache_misses)
        .sum();
    assert_eq!(
        stats.hits + stats.misses - service,
        jobs.len() as u64,
        "one launch lookup per job"
    );

    // On 8 nodes no service shape (k <= 4) is the launch's: nothing is
    // shared, and memory is the same.
    let apart = server(8, config()).run(&jobs).unwrap();
    assert_eq!(apart.digests, report.digests);
}
