//! `ckpt_cycle`: `core::state` used both ways. A 4-node cluster holds three
//! buffers after one launch; one op checkpoints it, encodes the image,
//! decodes it, restores a same-shape cluster from it and compares every
//! restored buffer with the reference — all in memory, no disk. No other
//! workload touches this code, so it must not move when they do.

use super::{cluster_spec, fingerprint, shape, Exact, KernelCase, Workload};
use crate::inputs::Rng;
use crate::probes::node_bytes;
use crate::spans::Tracer;
use cucc::core::{compile_source, Checkpoint, CuccCluster, EngineKind, RunOptions};

const NODES: u32 = 4;
/// Floats in each of the launch's two buffers (3 MiB each).
const ELEMS: usize = 768 * 1024;
/// Bytes of the third buffer, which the launch never touches.
const AUX_BYTES: usize = 2 << 20;

pub struct CkptCycle {
    case: KernelCase,
    aux: Vec<u8>,
    cluster: Option<CuccCluster>,
    last: Option<Result<Exact, String>>,
}

impl CkptCycle {
    pub fn new(seed: u64) -> CkptCycle {
        CkptCycle {
            case: KernelCase::vec_affine(ELEMS, &mut Rng::new(seed, 7)),
            aux: Rng::new(seed, 8).bytes_below(AUX_BYTES, 256),
            cluster: None,
            last: None,
        }
    }

    /// The restored buffers must hold the launch's result and the
    /// untouched third buffer.
    fn check(&self, restored: &mut CuccCluster) -> Result<(), String> {
        let pool = restored.sim().node(0);
        let ids: Vec<_> = (0..pool.len() as u32).map(cucc::exec::BufferId).collect();
        let mut got = Vec::with_capacity(ids.len());
        for id in ids {
            got.push(restored.download::<u8>(id).map_err(|e| e.to_string())?);
        }
        if got.len() != 3 || got[2] != self.aux {
            return Err("restored auxiliary buffer differs from the reference".into());
        }
        self.case.check(&got[..2])
    }
}

/// Checkpoint `cluster`, push the image through its serialized form and
/// restore a same-shape cluster from it.
fn cycle(cluster: &mut CuccCluster, tr: &mut Tracer) -> Result<(CuccCluster, Exact), String> {
    let ckpt = tr
        .time("core.state.checkpoint_s", || cluster.checkpoint())
        .map_err(|e| e.to_string())?;
    let image = tr.time("core.state.encode_s", || ckpt.encode());
    let decoded = tr
        .time("core.state.decode_s", || Checkpoint::decode(&image))
        .map_err(|e| e.to_string())?;
    let restored = tr
        .time("core.state.restore_s", || {
            CuccCluster::restore(cluster_spec(NODES), RunOptions::default(), &decoded)
        })
        .map_err(|e| e.to_string())?;
    tr.count("core.state.image_bytes", image.len() as f64);
    let exact = Exact {
        sim_time: restored.clock(),
        sim_wire: restored.wire_bytes(),
        fingerprint: fingerprint(&(
            decoded.logical_nodes,
            decoded.epoch,
            decoded.clock.to_bits(),
            &decoded.alive,
            image.len(),
        )),
    };
    Ok((restored, exact))
}

impl Workload for CkptCycle {
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        self.cluster = None;
        let ck = compile_source(&self.case.source).map_err(|e| e.to_string())?;
        let mut cluster = CuccCluster::with_options(cluster_spec(NODES), RunOptions::default());
        let (args, handles) = self.case.alloc(&mut cluster, &ck.kernel);
        self.case.upload(&mut cluster, &handles)?;
        let aux = cluster.alloc(self.aux.len());
        cluster
            .upload::<u8>(aux, &self.aux)
            .map_err(|e| e.to_string())?;
        cluster
            .launch(&ck, self.case.launch, &args)
            .map_err(|e| e.to_string())?;
        self.cluster = Some(cluster);
        Ok(())
    }

    fn op(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let cluster = self.cluster.as_mut().expect("setup ran");
        self.last = Some(match cycle(cluster, tr) {
            Ok((mut restored, exact)) => tr
                .time("harness.check_s", || self.check(&mut restored))
                .map(|()| exact),
            Err(e) => Err(e),
        });
        Ok(())
    }

    fn verify(&mut self, _i: u64) -> Result<Exact, String> {
        // The comparison with the reference is part of the op itself.
        self.last.take().expect("verify follows op")
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        // The op is made of direct calls into `core::state`; there is no
        // composite to decompose.
        tr.count(
            "cluster.node_bytes",
            node_bytes(self.cluster.as_ref().expect("setup ran")),
        );
        Ok(())
    }

    fn conditions(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nodes", NODES.to_string()),
            ("engine", EngineKind::default().to_string()),
            (
                "grid",
                format!("vec_affine (set-up only): {}", shape(self.case.launch)),
            ),
            ("buffers", "3".into()),
            (
                "bytes_resident",
                (self.case.bytes() + self.aux.len()).to_string(),
            ),
        ]
    }
}
