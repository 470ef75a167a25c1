//! Peer-memory data tier — the paper's Future Work §VII.A: "Further
//! integration of Fenix and Kokkos Resilience in the form of a
//! data-resiliency backend."
//!
//! A [`PeerTier`] keeps each rank's checkpoint in other ranks' memory,
//! with no filesystem involvement at all. It names one of two stores:
//! Fenix's buddy IMR (one partner copy) or the redundancy store (k
//! replicas or erasure-coded shards over a topology-aware placement group,
//! which survives several concurrent rank losses, including a whole
//! modeled node). Both commit two-phase, so committed versions are
//! consistent across survivors.
//!
//! The tier serves two callers: the manual-control Fenix strategies in the
//! runner, and Kokkos Resilience through the [`DataBackend`] implemented
//! here. Either way a rank's views travel as one full frame packed by
//! [`veloc::pack_regions`] and are checked against the frame's CRCs before
//! any view is written. A frame that fails them, or that names a region
//! the caller does not hold, ends the job through the typed
//! [`MpiError::Aborted`], never a panic.
//!
//! Backend requirements: the context must run under Fenix (restores need
//! the recovered-rank hint, see
//! [`kokkos_resilience::Context::set_recovering_ranks`]) and with
//! `RecoveryScope::All` (store and restore are collective).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bytes::Bytes;
use fenix::{DataGroup, ImrPolicy, ImrStore};
use kokkos_resilience::{DataBackend, RegionViews, ViewRegion};
use redstore::{RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{Comm, MpiError, MpiResult, ReduceOp};
use veloc::{serial, Protected};

/// Which peer-memory store holds the checkpoints. The store must outlive
/// Fenix repairs (create it outside the run loop) so survivor copies
/// persist.
#[derive(Clone)]
pub enum PeerTier {
    /// Fenix buddy IMR. `None` picks the policy from the communicator's
    /// layout ([`ImrPolicy::auto`]): a topology-aware ring when a node
    /// hosts several ranks (a naive Pair/Ring could put a buddy on its
    /// owner's node, and a whole-node failure would take both copies),
    /// else Pair on even communicators and Ring otherwise.
    Imr(Arc<ImrStore>, Option<ImrPolicy>),
    /// The redundancy store. `None` picks the strongest placement-feasible
    /// mode for the communicator's node layout (RS(4,2) → XOR(3) →
    /// 2-replica).
    Redstore(Arc<RedStore>, Option<RedundancyMode>),
}

impl PeerTier {
    /// Collectively commit `views` as `member`'s checkpoint at `version`.
    /// Every rank of `comm` calls with its own views.
    pub fn store(
        &self,
        comm: &Comm,
        member: u32,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()> {
        let blob = pack(views);
        match self {
            PeerTier::Imr(store, policy) => {
                DataGroup::new(Arc::clone(store), comm, imr_policy(*policy, comm))
                    .store(member, version, blob)
            }
            PeerTier::Redstore(store, mode) => {
                Ok(RedundancyGroup::new(Arc::clone(store), comm, *mode)
                    .store(member, version, blob)?)
            }
        }
    }

    /// Collectively restore `member`'s committed checkpoint into `views`
    /// and return its version. `recovering` lists the ranks that hold no
    /// copy; it must be identical on every rank.
    pub fn restore(
        &self,
        comm: &Comm,
        member: u32,
        recovering: &[usize],
        views: &RegionViews,
    ) -> MpiResult<u64> {
        let (version, blob) = match self {
            PeerTier::Imr(store, policy) => {
                DataGroup::new(Arc::clone(store), comm, imr_policy(*policy, comm))
                    .restore(member, recovering)?
            }
            PeerTier::Redstore(store, mode) => {
                RedundancyGroup::new(Arc::clone(store), comm, *mode).restore(member, recovering)?
            }
        };
        unpack(views, &blob)?;
        Ok(version)
    }

    /// This rank's latest committed version of `member`, if any.
    pub fn latest_version(&self, member: u32) -> Option<u64> {
        match self {
            PeerTier::Imr(store, _) => store.latest_version(member),
            PeerTier::Redstore(store, _) => store.latest_version(member),
        }
    }
}

fn imr_policy(policy: Option<ImrPolicy>, comm: &Comm) -> ImrPolicy {
    policy.unwrap_or_else(|| ImrPolicy::auto(&redstore::comm_node_map(comm)))
}

/// Stable member id per region name.
fn member_of(name: &str) -> u32 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() & 0x7fff_ffff) as u32
}

fn pack(views: &RegionViews) -> Bytes {
    let regions: Vec<(u32, Arc<dyn Protected>)> = views
        .iter()
        .map(|(id, v)| {
            (
                *id,
                Arc::new(ViewRegion(Arc::clone(v))) as Arc<dyn Protected>,
            )
        })
        .collect();
    veloc::pack_regions(None, &regions, &[])
}

/// Restore `views` from a frame. Every check runs before any view is
/// written: a frame that fails its CRCs or names a region id not among
/// `views` leaves every view untouched and aborts the job through the
/// error channel.
fn unpack(views: &RegionViews, blob: &Bytes) -> MpiResult<()> {
    let meta = serial::parse_meta(blob)
        .filter(|m| m.verify_payloads(blob))
        .ok_or(MpiError::Aborted)?;
    let payloads = meta.payloads(blob);
    let targets = payloads
        .iter()
        .map(|(id, _)| views.iter().find(|(vid, _)| vid == id).map(|(_, v)| v))
        .collect::<Option<Vec<_>>>()
        .ok_or(MpiError::Aborted)?;
    for (view, (_, payload)) in targets.into_iter().zip(&payloads) {
        view.restore(payload);
    }
    Ok(())
}

impl DataBackend for PeerTier {
    fn set_rank(&self, _rank: usize) {
        // Peer storage is keyed by communicator position; nothing cached.
    }

    fn checkpoint(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()> {
        self.store(comm, member_of(name), version, views)
    }

    fn latest_local(&self, name: &str) -> Option<u64> {
        self.latest_version(member_of(name))
    }

    fn latest_agreed(&self, comm: &Comm, name: &str) -> MpiResult<Option<u64>> {
        // Max: survivors hold the (consistent) committed version; a
        // replacement rank holds nothing but restores from its peers.
        let local = self.latest_local(name).map_or(-1i64, |v| v as i64);
        let max = comm.allreduce_scalar(local, ReduceOp::Max)?;
        Ok((max >= 0).then_some(max as u64))
    }

    fn restore(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
        recovering_ranks: &[usize],
    ) -> MpiResult<()> {
        // The inherent `PeerTier::restore`, not this trait method.
        let got = PeerTier::restore(self, comm, member_of(name), recovering_ranks, views)?;
        debug_assert_eq!(got, version, "commit protocol keeps versions consistent");
        Ok(())
    }

    fn clear(&self) {
        // Survivor copies must persist across context resets — clearing the
        // peer store would defeat recovery. Region metadata re-detection is
        // handled by the context itself.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kokkos::capture::Checkpointable;
    use kokkos::View;

    fn views(v: &View<u64>) -> Vec<(u32, Arc<dyn Checkpointable>)> {
        vec![(7, Arc::new(v.clone()))]
    }

    #[test]
    fn member_ids_are_stable_and_distinct() {
        assert_eq!(member_of("app.loop"), member_of("app.loop"));
        assert_ne!(member_of("app.loop"), member_of("app.other"));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let v: View<u64> = View::from_vec("r", vec![1, 2, 3]);
        let blob = pack(&views(&v));
        v.fill(0);
        unpack(&views(&v), &blob).unwrap();
        assert_eq!(*v.read_uncaptured(), vec![1, 2, 3]);
    }

    /// Every rejected frame must come back as the typed abort with the view
    /// untouched — never a panic, never a partial restore.
    fn assert_rejected(blob: Bytes, why: &str) {
        let v: View<u64> = View::from_vec("r", vec![9, 9, 9]);
        assert_eq!(unpack(&views(&v), &blob), Err(MpiError::Aborted), "{why}");
        assert_eq!(*v.read_uncaptured(), vec![9, 9, 9], "{why}");
    }

    #[test]
    fn bit_flipped_frame_aborts() {
        let v: View<u64> = View::from_vec("r", vec![1, 2, 3]);
        let mut raw = pack(&views(&v)).to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        assert_rejected(Bytes::from(raw), "payload bit flip");
    }

    #[test]
    fn truncated_frame_aborts() {
        let v: View<u64> = View::from_vec("r", vec![1, 2, 3]);
        let blob = pack(&views(&v));
        for cut in [0, 4, 8, 20, blob.len() - 1] {
            assert_rejected(blob.slice(..cut), &format!("cut at {cut}"));
        }
    }

    #[test]
    fn unknown_region_id_aborts() {
        let blob = serial::pack(&[
            (7, Bytes::from(vec![0u8; 24])),
            (8, Bytes::from(vec![0u8; 24])),
        ]);
        assert_rejected(blob, "region 8 is not among the views");
    }
}
