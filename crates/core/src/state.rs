//! Elastic cluster state: the single ownership boundary for *membership*.
//!
//! Historically the cluster's shape was smeared across `CuccCluster` as an
//! ad-hoc alive mask consulted by the runtime, the scheduler, the fault
//! path and the CLI. [`ClusterState`] centralizes it behind a
//! **membership epoch** — a monotonically increasing counter bumped on
//! every membership change (death, join, growth, restore). The epoch
//! answers "did anything change since I last looked?" (staleness); what a
//! schedule depends on is only *how many* nodes are alive
//! ([`ClusterState::active_nodes`], the count `ScheduleKey` carries): a
//! cluster that loses node 1 and later gets it back is at a *later epoch*
//! with the *same count*, so the schedules planned there hit again.
//!
//! The module also defines the versioned on-disk [`Checkpoint`] format
//! that serializes the full observable cluster state — buffer bytes,
//! alive/epoch, the simulated clock, and the fault-session cursor — so a
//! job can be restored into a new process (same or different node count)
//! and resume bit-identically.
//!
//! Node state is copied once per direction. A [`Checkpoint`] borrows its
//! buffer bytes: the one taken by `CuccCluster::checkpoint` lends the read
//! node's pool, and the one [`Checkpoint::decode`] returns lends slices of
//! the image. Going out, [`Checkpoint::encode`] copies each byte into an
//! image sized once; coming back, `CuccCluster::restore` copies each byte
//! from the image into each node's fresh buffer.

use crate::error::MigrateError;

/// Membership state of a simulated cluster: which logical nodes exist,
/// which are alive, and how many membership changes have happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterState {
    /// Monotonically increasing membership epoch. Starts at 0; every
    /// death, join, growth or cross-shape restore bumps it by one. Never
    /// reused, never decreased.
    epoch: u64,
    /// Liveness per logical node; its length is the logical node count.
    alive: Vec<bool>,
}

impl ClusterState {
    /// Fresh state: `logical_nodes` nodes, all alive, epoch 0.
    pub fn new(logical_nodes: usize) -> ClusterState {
        ClusterState {
            epoch: 0,
            alive: vec![true; logical_nodes],
        }
    }

    /// Rebuild state from a restored checkpoint: an explicit alive mask at
    /// an explicit (already advanced) epoch.
    pub(crate) fn restored(alive: Vec<bool>, epoch: u64) -> ClusterState {
        ClusterState { epoch, alive }
    }

    /// Logical node count (alive or dead).
    pub fn logical_nodes(&self) -> usize {
        self.alive.len()
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Liveness mask per logical node.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Liveness of one logical node (out-of-range ids are dead).
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Logical node ids that are alive, in ascending order.
    pub fn alive_ids(&self) -> Vec<u32> {
        (0..self.alive.len() as u32)
            .filter(|&i| self.alive[i as usize])
            .collect()
    }

    /// Number of alive nodes.
    pub fn active_nodes(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Mark a node dead; bumps the epoch. Returns the new epoch.
    pub fn mark_dead(&mut self, node: usize) -> u64 {
        debug_assert!(self.alive[node], "node {node} is already dead");
        self.alive[node] = false;
        self.epoch += 1;
        self.epoch
    }

    /// Revive a dead node (a rejoin); bumps the epoch. Returns the new
    /// epoch.
    pub fn mark_alive(&mut self, node: usize) -> u64 {
        debug_assert!(!self.alive[node], "node {node} is already alive");
        self.alive[node] = true;
        self.epoch += 1;
        self.epoch
    }

    /// Grow the cluster by one fresh, alive node; bumps the epoch.
    /// Returns the new node's id.
    pub fn grow(&mut self) -> usize {
        self.alive.push(true);
        self.epoch += 1;
        self.alive.len() - 1
    }
}

/// One serialized cluster checkpoint: everything needed to resume a job
/// bit-identically in a new process, possibly at a different node count.
///
/// The on-disk layout (version 1, all integers little-endian) is:
///
/// ```text
/// magic       8  b"CUCCCKPT"
/// version     u32
/// nodes       u32   logical node count at checkpoint time
/// epoch       u64   membership epoch at checkpoint time
/// clock       f64   simulated clock (timeline floor for the restore)
/// modeled     u8    1 when the session ran at modeled fidelity
/// alive       nodes × u8
/// cursor      u8    1 when a fault-session cursor follows
///   rng       u64   injector RNG state
///   flags     u32 + n × u8   per-event consumption flags
/// buffers     u32 + per buffer (u64 length + raw bytes)
/// ```
///
/// Checkpoints are taken at a **quiesce barrier**: the runtime drains all
/// streams and materializes every pending (elided) gather first, so the
/// recorded buffer bytes are globally consistent and a single copy per
/// buffer suffices.
///
/// The buffers are borrowed (`'a` is the node pool or the image they were
/// read from); a checkpoint that must outlive its cluster goes through
/// [`Checkpoint::encode`] and [`Checkpoint::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<'a> {
    /// Logical node count the checkpoint was taken at.
    pub logical_nodes: u32,
    /// Membership epoch at checkpoint time.
    pub epoch: u64,
    /// Simulated clock at the quiesce barrier.
    pub clock: f64,
    /// Whether the session ran at modeled (timing-only) fidelity.
    pub modeled: bool,
    /// Liveness mask (length == `logical_nodes`).
    pub alive: Vec<bool>,
    /// Fault-session cursor: injector RNG state plus per-event
    /// consumption flags. `None` when the session had no fault plan.
    pub fault_cursor: Option<(u64, Vec<bool>)>,
    /// Raw bytes of every buffer, in allocation (= `BufferId`) order.
    pub buffers: Vec<&'a [u8]>,
}

/// File magic of the checkpoint format.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CUCCCKPT";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl<'a> Checkpoint<'a> {
    /// Serialize to the versioned binary format, into an image allocated
    /// once at its final size.
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.alive.len(), self.logical_nodes as usize);
        // magic, version, nodes, epoch, clock, modeled
        const FIXED: usize = 8 + 4 + 4 + 8 + 8 + 1;
        let cursor = match &self.fault_cursor {
            None => 1,
            Some((_, flags)) => 1 + 8 + 4 + flags.len(),
        };
        let payload: usize = self.buffers.iter().map(|b| 8 + b.len()).sum();
        let len = FIXED + self.alive.len() + cursor + 4 + payload;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.logical_nodes.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.clock.to_bits().to_le_bytes());
        out.push(self.modeled as u8);
        out.extend(self.alive.iter().map(|&a| a as u8));
        match &self.fault_cursor {
            None => out.push(0),
            Some((rng, flags)) => {
                out.push(1);
                out.extend_from_slice(&rng.to_le_bytes());
                out.extend_from_slice(&(flags.len() as u32).to_le_bytes());
                out.extend(flags.iter().map(|&f| f as u8));
            }
        }
        out.extend_from_slice(&(self.buffers.len() as u32).to_le_bytes());
        for buf in &self.buffers {
            out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
            out.extend_from_slice(buf);
        }
        debug_assert_eq!(out.len(), len, "encode sized the image wrongly");
        out
    }

    /// Parse the versioned binary format. The buffers are slices of
    /// `bytes`; nothing of the payload is copied.
    pub fn decode(bytes: &'a [u8]) -> Result<Checkpoint<'a>, MigrateError> {
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], MigrateError> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| MigrateError::Checkpoint("truncated checkpoint".into()))?;
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        }
        let bad = |m: &str| MigrateError::Checkpoint(m.to_string());
        let mut p = 0usize;
        let mut take = |n: usize| take(bytes, &mut p, n);
        if take(8)? != CHECKPOINT_MAGIC {
            return Err(bad("not a cucc checkpoint (bad magic)"));
        }
        let version = u32::from_le_bytes(take(4)?.try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(MigrateError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads \
                 version {CHECKPOINT_VERSION})"
            )));
        }
        let logical_nodes = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let epoch = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let clock = f64::from_bits(u64::from_le_bytes(take(8)?.try_into().unwrap()));
        let modeled = take(1)?[0] != 0;
        let alive: Vec<bool> = take(logical_nodes as usize)?
            .iter()
            .map(|&b| b != 0)
            .collect();
        let fault_cursor = if take(1)?[0] != 0 {
            let rng = u64::from_le_bytes(take(8)?.try_into().unwrap());
            let nflags = u32::from_le_bytes(take(4)?.try_into().unwrap());
            let flags = take(nflags as usize)?.iter().map(|&b| b != 0).collect();
            Some((rng, flags))
        } else {
            None
        };
        let nbufs = u32::from_le_bytes(take(4)?.try_into().unwrap());
        // The count is untrusted: reserve no more than the input could hold
        // (every buffer costs at least its 8-byte length header).
        let mut buffers = Vec::with_capacity((nbufs as usize).min(bytes.len() / 8));
        for _ in 0..nbufs {
            let len = u64::from_le_bytes(take(8)?.try_into().unwrap());
            // A length past the address space is past the input too.
            buffers.push(take(usize::try_from(len).unwrap_or(usize::MAX))?);
        }
        if p != bytes.len() {
            return Err(bad("trailing bytes after checkpoint payload"));
        }
        Ok(Checkpoint {
            logical_nodes,
            epoch,
            clock,
            modeled,
            alive,
            fault_cursor,
            buffers,
        })
    }

    /// Total buffer payload in bytes (the dominant term of the state
    /// size).
    pub fn state_bytes(&self) -> u64 {
        self.buffers.iter().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic_and_the_count_follows_membership() {
        let mut st = ClusterState::new(3);
        assert_eq!(st.epoch(), 0);
        assert_eq!(st.active_nodes(), 3);

        st.mark_dead(1);
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.alive_ids(), vec![0, 2]);
        assert_eq!(st.active_nodes(), 2);

        // Rejoin: later epoch, the healthy cluster's count again.
        st.mark_alive(1);
        assert_eq!(st.epoch(), 2);
        assert_eq!(st.active_nodes(), 3);

        // Growth: a new slot, alive.
        assert_eq!(st.grow(), 3);
        assert_eq!(st.epoch(), 3);
        assert_eq!(st.logical_nodes(), 4);
        assert!(st.is_alive(3));
        assert_eq!(st.active_nodes(), 4);
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let ck = Checkpoint {
            logical_nodes: 3,
            epoch: 7,
            clock: 1.25e-3,
            modeled: false,
            alive: vec![true, false, true],
            fault_cursor: Some((0xDEAD_BEEF, vec![true, false, true, true])),
            buffers: vec![&[1, 2, 3, 4], &[], &[0xFF; 31]],
        };
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        assert_eq!(ck.state_bytes(), 35);

        let no_cursor = Checkpoint {
            fault_cursor: None,
            ..ck.clone()
        };
        assert_eq!(Checkpoint::decode(&no_cursor.encode()).unwrap(), no_cursor);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = Checkpoint {
            logical_nodes: 2,
            epoch: 0,
            clock: 0.0,
            modeled: true,
            alive: vec![true, true],
            fault_cursor: None,
            buffers: vec![&[9; 8]],
        }
        .encode();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(Checkpoint::decode(&bad).is_err());
        // Unsupported version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(Checkpoint::decode(&bad).is_err());
        // Truncation anywhere must error, never panic.
        for cut in 0..good.len() {
            assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(Checkpoint::decode(&bad).is_err());
        // An inflated buffer count (zero nodes, no cursor, `nbufs = u32::MAX`
        // in 38 bytes) is a typed error, not a ~100 GB reservation.
        let mut bad = Checkpoint {
            logical_nodes: 0,
            alive: Vec::new(),
            buffers: Vec::new(),
            ..Checkpoint::decode(&good).unwrap()
        }
        .encode();
        assert_eq!(bad.len(), 38);
        bad[34..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bad),
            Err(MigrateError::Checkpoint(_))
        ));
    }

    /// Version-1 images as `encode` wrote them before checkpoints borrowed
    /// their buffers: one with a fault cursor, one without. `encode` must
    /// still write these bytes, and `decode` must still read them.
    #[test]
    fn version_1_images_are_pinned() {
        const WITH_CURSOR: [u8; 90] = [
            67, 85, 67, 67, 67, 75, 80, 84, 1, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 123,
            20, 174, 71, 225, 122, 84, 63, 0, 1, 0, 1, 1, 239, 190, 173, 222, 0, 0, 0, 0, 4, 0, 0,
            0, 1, 0, 1, 1, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0,
            5, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255,
        ];
        const WITHOUT_CURSOR: [u8; 56] = [
            67, 85, 67, 67, 67, 75, 80, 84, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 183,
            95, 62, 89, 49, 92, 205, 62, 1, 1, 1, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9,
            9, 9, 9, 9, 9,
        ];
        let with_cursor = Checkpoint {
            logical_nodes: 3,
            epoch: 7,
            clock: 1.25e-3,
            modeled: false,
            alive: vec![true, false, true],
            fault_cursor: Some((0xDEAD_BEEF, vec![true, false, true, true])),
            buffers: vec![&[1, 2, 3, 4], &[], &[0xFF; 5]],
        };
        let without_cursor = Checkpoint {
            logical_nodes: 2,
            epoch: 0,
            clock: 3.5e-6,
            modeled: true,
            alive: vec![true, true],
            fault_cursor: None,
            buffers: vec![&[9; 8]],
        };
        for (ck, pinned) in [
            (with_cursor, &WITH_CURSOR[..]),
            (without_cursor, &WITHOUT_CURSOR[..]),
        ] {
            assert_eq!(ck.encode(), pinned);
            assert_eq!(Checkpoint::decode(pinned).unwrap(), ck);
        }
    }
}
