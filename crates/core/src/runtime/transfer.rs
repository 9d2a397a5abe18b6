//! Host↔device transfers: one `h2d` and one `d2h`, each on a [`Start`];
//! `upload`/`download` start at the clock, their `_on` twins on a stream.

use super::{CuccCluster, Start};
use crate::error::MigrateError;
use crate::stream::StreamId;
use crate::transfer::HostScalar;
use cucc_exec::{Arg, BufferId};
use cucc_net::broadcast_traced;
use cucc_trace::{Category, Track};

impl CuccCluster {
    /// Broadcast `data` to every node's copy of `buf`. A broadcast occupies
    /// the host's injection link (the host lane), not the inter-node fabric
    /// the collectives serialize on. It makes every replica identical, so a
    /// deferred gather for `buf` is moot: a stream broadcast waits for none.
    pub(super) fn h2d(
        &mut self,
        buf: BufferId,
        data: &[u8],
        start: Start,
    ) -> Result<(), MigrateError> {
        self.drain(start, &[])?;
        let t0 = self.start_time(start, &[], &[buf], [Track::Host]);
        self.pending.remove(&buf);
        self.sim.write_all(buf, data);
        let bt = broadcast_traced(
            &self.sim.spec.net,
            self.state.logical_nodes(),
            data.len() as u64,
            &mut self.timeline,
            t0,
            "h2d broadcast",
        );
        self.timeline
            .span("h2d", Track::Host, Category::H2d, t0, bt);
        if bt > 0.0 {
            self.timeline.reserve_lane(Track::Host, t0 + bt);
        }
        self.close(start, &[], &[buf], bt, t0 + bt);
        Ok(())
    }

    /// Read `buf` back. The host observes memory, so an elided gather
    /// happens first. A d2h is free in the time model — recorded on the
    /// host track, but it occupies no link time, so it moves neither the
    /// clock nor the host lane; on a stream it is still hazard-ordered.
    fn d2h<T: HostScalar>(&mut self, buf: BufferId, start: Start) -> Result<Vec<T>, MigrateError> {
        let size = self.check_buffer(buf, "download")?;
        if size % T::SIZE != 0 {
            return Err(MigrateError::Transfer(format!(
                "download: buffer id {} ({size} bytes) is not a whole number of {} elements",
                buf.index(),
                T::NAME
            )));
        }
        self.drain(start, &[Arg::Buffer(buf)])?;
        self.materialize_buffer(buf);
        let t = self.start_time(start, &[buf], &[], [Track::Host]);
        self.close(start, &[buf], &[], 0.0, t);
        self.timeline
            .span("d2h", Track::Host, Category::D2h, t, 0.0);
        Ok(T::decode(self.sim.read(self.read_node(), buf)))
    }

    /// Validate that `buf` names an allocation and return its byte size.
    pub(super) fn check_buffer(&self, buf: BufferId, op: &str) -> Result<usize, MigrateError> {
        let pool = self.sim.node(0);
        if buf.index() >= pool.len() {
            return Err(MigrateError::Transfer(format!(
                "{op}: buffer id {} was never allocated",
                buf.index()
            )));
        }
        Ok(pool.size_of(buf))
    }

    /// Validate an upload payload against the destination allocation.
    fn check_upload<T: HostScalar>(&self, buf: BufferId, n: usize) -> Result<(), MigrateError> {
        let size = self.check_buffer(buf, "upload")?;
        if n * T::SIZE != size {
            return Err(MigrateError::Transfer(format!(
                "upload: {n} {} elements ({} bytes) do not fill buffer id {} ({size} bytes)",
                T::NAME,
                n * T::SIZE,
                buf.index()
            )));
        }
        Ok(())
    }

    /// Host→device copy: broadcast `data` to every node's replica of `buf`,
    /// charged to the clock. Typed and validated. Records the broadcast on
    /// the timeline — including the wire traffic the pre-timeline
    /// accounting never attributed anywhere.
    pub fn upload<T: HostScalar>(&mut self, buf: BufferId, data: &[T]) -> Result<(), MigrateError> {
        self.check_upload::<T>(buf, data.len())?;
        self.h2d(buf, &T::encode(data), Start::Clock)
    }

    /// Device→host copy of a whole buffer. Free in the time model, but
    /// recorded on the timeline's host track. Typed and validated.
    pub fn download<T: HostScalar>(&mut self, buf: BufferId) -> Result<Vec<T>, MigrateError> {
        self.d2h(buf, Start::Clock)
    }

    /// Async host→device broadcast on `stream`. Occupies the host lane
    /// (broadcasts serialize on the host's injection link) and overlaps
    /// with kernel compute on the node lanes. The bytes land immediately
    /// (see [`CuccCluster::launch_on`] on eager functional execution).
    /// The generic, validated twin of [`CuccCluster::upload`].
    pub fn upload_on<T: HostScalar>(
        &mut self,
        buf: BufferId,
        data: &[T],
        stream: StreamId,
    ) -> Result<(), MigrateError> {
        self.check_upload::<T>(buf, data.len())?;
        self.h2d(buf, &T::encode(data), Start::Stream(stream))
    }

    /// Async device→host copy on `stream`. Free in the time model but
    /// hazard-ordered: it waits for the last write to `buf` on the
    /// simulated clock, and later writes wait for it (WAR). The data is
    /// returned immediately — eager functional execution guarantees it
    /// already holds the value the stream order will produce. The generic,
    /// validated twin of [`CuccCluster::download`].
    pub fn download_on<T: HostScalar>(
        &mut self,
        buf: BufferId,
        stream: StreamId,
    ) -> Result<Vec<T>, MigrateError> {
        self.d2h(buf, Start::Stream(stream))
    }
}
