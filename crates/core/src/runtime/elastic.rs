//! Elasticity: node joins at launch boundaries, checkpoint and restore.

use super::{CuccCluster, ExecutionFidelity};
use crate::error::MigrateError;
use crate::state::{Checkpoint, ClusterState};
use cucc_cluster::ClusterSpec;
use cucc_exec::BufferId;
use cucc_net::broadcast_traced;

impl CuccCluster {
    /// Admit every scripted `join:` event whose time has come. Called at
    /// launch boundaries (and before a checkpoint), never inside a launch's
    /// report window — the joiner's state transfer is recorded as a
    /// broadcast, which launch reports assert they never contain.
    pub(super) fn process_joins(&mut self) -> Result<(), MigrateError> {
        loop {
            let t = self.timeline.clock();
            let n = self.state.logical_nodes();
            let ripe = self.fault_state.joins_pending(t);
            // A join for a currently-alive slot stays pending — it fires
            // at the first boundary that finds the slot dead (a `kill` at
            // the same timestamp is admitted first, mid-launch).
            let Some(&node) = ripe
                .iter()
                .find(|&&jn| (jn as usize) >= n || !self.state.is_alive(jn as usize))
            else {
                return Ok(());
            };
            self.admit_join(node, t)?;
        }
    }

    /// Admit one join at a launch boundary: revive a dead slot, or grow
    /// the cluster by one when `node` names the next fresh id. The joiner
    /// receives the full cluster state from the first surviving node
    /// (pending gathers are flushed first so that state is globally
    /// consistent), and the membership epoch advances.
    fn admit_join(&mut self, node: u32, t: f64) -> Result<(), MigrateError> {
        let n = self.state.logical_nodes();
        let nn = node as usize;
        self.fault_state.take_join(node, t);
        // The join supersedes whatever kill(s) took this slot down.
        self.fault_state.absorb_kills(node, t);
        if nn < n && self.state.is_alive(nn) {
            // Already a member: the join is a no-op (but stays consumed).
            return Ok(());
        }
        if nn > n {
            return Err(MigrateError::Launch(format!(
                "join:node={node} skips ids — the cluster has {n} node slots; \
                 a growth join must use node={n}"
            )));
        }
        // The joiner must see globally consistent memory: flush deferred
        // gathers before cloning the donor's pool.
        self.materialize_all();
        let donor = self.read_node();
        if self.functional() {
            if nn == n {
                self.sim.add_node_from(donor);
            } else {
                self.sim.copy_node_state(donor, nn);
            }
        }
        if nn == n {
            self.state.grow();
        } else {
            self.state.mark_alive(nn);
        }
        let bytes = self.node_state_bytes();
        let t0 = self.timeline.clock();
        // One donor, one receiver: a 2-party broadcast prices the p2p
        // state transfer and records its wire traffic.
        let dur = broadcast_traced(
            &self.sim.spec.net,
            2,
            bytes,
            &mut self.timeline,
            t0,
            &format!("join: state transfer to node {node}"),
        );
        self.advance_past_network(dur);
        Ok(())
    }

    /// Capture the full cluster state at a quiesce barrier: drain every
    /// stream, flush every deferred gather (a checkpoint taken mid-graph
    /// would otherwise record per-node slices), and admit ripe joins so
    /// the image reflects the membership the next launch would see. The
    /// returned [`Checkpoint`] borrows the read node's pool (nothing is
    /// copied, and the cluster stays borrowed while it lives); it
    /// serializes with [`Checkpoint::encode`] and restores — into the same
    /// or a *different* node count — with [`CuccCluster::restore`].
    pub fn checkpoint(&mut self) -> Result<Checkpoint<'_>, MigrateError> {
        self.synchronize()?;
        self.process_joins()?;
        self.materialize_all();
        let pool = self.sim.node(self.read_node());
        let buffers = (0..pool.len())
            .map(|i| pool.bytes(BufferId(i as u32)))
            .collect();
        Ok(Checkpoint {
            logical_nodes: self.state.logical_nodes() as u32,
            epoch: self.state.epoch(),
            clock: self.timeline.clock(),
            modeled: !self.functional(),
            // A byte per node; the buffers above are the node state.
            alive: self.state.alive().into(),
            // Only an armed plan has consumption state worth carrying; an
            // empty plan's image stays cursor-free (and byte-identical to
            // the images written before the injector was always present).
            fault_cursor: (!self.config.faults.is_empty()).then(|| self.fault_state.cursor()),
            buffers,
        })
    }

    /// [`CuccCluster::checkpoint`], serialized to a file in the versioned
    /// on-disk format. Returns the byte size written.
    ///
    /// The image is written to `<path>.tmp`, synced, and renamed over
    /// `path`, and the directory is synced after the rename: a crash leaves
    /// either the previous file or the whole new image under `path`, never
    /// a truncated one. On failure the temporary file is removed and
    /// `path` is left as it was.
    pub fn checkpoint_to(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, MigrateError> {
        use std::io::Write;
        let path = path.as_ref();
        let bytes = self.checkpoint()?.encode();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let fail = |what: &str, at: &std::path::Path, e: std::io::Error| {
            MigrateError::Checkpoint(format!("{what} {}: {e}", at.display()))
        };
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                f.sync_all()
            })
            .map_err(|e| fail("writing", &tmp, e))
            .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| fail("renaming to", path, e)));
        if let Err(e) = written {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
        // Make the rename itself durable. A directory that cannot be
        // opened for syncing (a platform without directory handles) has
        // still received the complete image under its final name.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().map_err(|e| fail("syncing", dir, e))?;
        }
        Ok(bytes.len() as u64)
    }

    /// Rebuild a cluster from a checkpoint. With `spec.nodes` equal to the
    /// checkpointed node count, liveness and epoch survive the restore
    /// and execution resumes bit-identically to the uninterrupted run.
    /// With a *different* node count the restore is a migration: every
    /// node of the new shape starts alive, one epoch past the image's.
    /// Buffer ids are replayed in allocation order, so handles held
    /// before the checkpoint stay valid against the restored cluster. Each
    /// buffer is copied out of the checkpoint once and shared by every
    /// node until that node writes it (`SimCluster::alloc_from`).
    pub fn restore(
        spec: ClusterSpec,
        options: crate::RunOptions,
        ckpt: &Checkpoint<'_>,
    ) -> Result<CuccCluster, MigrateError> {
        let modeled = options.fidelity == ExecutionFidelity::Modeled;
        if ckpt.modeled != modeled {
            let name = |modeled| if modeled { "modeled" } else { "functional" };
            return Err(MigrateError::Checkpoint(format!(
                "fidelity mismatch: the checkpoint was taken under {} execution \
                 but the restore config uses {}",
                name(ckpt.modeled),
                name(modeled),
            )));
        }
        let mut cl = CuccCluster::with_options(spec, options);
        if cl.state.logical_nodes() == ckpt.logical_nodes as usize {
            cl.state = ClusterState::restored(ckpt.alive.clone(), ckpt.epoch);
        } else {
            let n = cl.state.logical_nodes();
            cl.state = ClusterState::restored(vec![true; n], ckpt.epoch + 1);
        }
        for bytes in &ckpt.buffers {
            cl.sim.alloc_from(bytes);
        }
        // Consumed one-shot fault events stay consumed across the restore,
        // and the fault RNG continues its checkpointed sequence.
        if let Some((rng, used)) = &ckpt.fault_cursor {
            if cl.config.faults.is_empty() {
                return Err(MigrateError::Checkpoint(
                    "the checkpoint carries a fault-session cursor but the restore \
                     config has no fault plan"
                        .into(),
                ));
            }
            cl.fault_state
                .restore_cursor(*rng, used)
                .map_err(MigrateError::Checkpoint)?;
        }
        // Resume the simulated clock at the checkpointed floor.
        cl.timeline.advance_to(ckpt.clock);
        let t = cl.timeline.clock();
        cl.streams.settle(t);
        Ok(cl)
    }

    /// [`CuccCluster::restore`] from a file written by
    /// [`CuccCluster::checkpoint_to`].
    pub fn restore_from(
        spec: ClusterSpec,
        options: crate::RunOptions,
        path: impl AsRef<std::path::Path>,
    ) -> Result<CuccCluster, MigrateError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| {
            MigrateError::Checkpoint(format!("reading {}: {e}", path.as_ref().display()))
        })?;
        let ckpt = Checkpoint::decode(&bytes)?;
        CuccCluster::restore(spec, options, &ckpt)
    }
}
