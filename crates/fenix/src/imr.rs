//! Fenix In-Memory-Redundancy (IMR) data storage, buddy-rank policy.
//!
//! "The IMR policies benefit from process-level resiliency by storing
//! checkpoint data in the memory of other ranks … ranks form pairs and store
//! each other's checkpointed data. Local copies of checkpoints are also
//! kept, increasing memory use in exchange for quick, local recovery on
//! surviving ranks." (paper §V.A)
//!
//! The [`ImrStore`] is per-rank memory that *persists across Fenix
//! re-entries* (it lives outside the run loop, like any application state a
//! survivor keeps). A [`DataGroup`] binds the store to the current resilient
//! communicator for collective store/restore operations.
//!
//! Costs: a store is a synchronous exchange with the buddy — its time grows
//! linearly with checkpoint size but uses disjoint rank-to-rank links, so
//! aggregate IMR bandwidth *scales with the number of ranks* while the
//! parallel filesystem's does not. That contrast is the crossover the
//! paper's Figure 5 shows.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simmpi::{Comm, MpiError, MpiResult};

/// Buddy assignment policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImrPolicy {
    /// Ranks pair up by XOR (0↔1, 2↔3, …). Requires an even communicator
    /// size. This is the paper's "buddy rank policy".
    Pair,
    /// Each rank stores to its right neighbor and holds for its left
    /// neighbor (works for any size ≥ 2).
    Ring,
    /// A ring over the topology-interleaved rank order: consecutive ring
    /// positions alternate modeled nodes wherever the layout permits, so a
    /// rank's buddy lands on a *different node* and a whole-node failure no
    /// longer takes both copies. With one rank per node this degenerates to
    /// a plain ring; Pair/Ring on a multi-rank-per-node layout can pair
    /// co-located ranks (rank 0 ↔ rank 1 on the same node = zero coverage
    /// against node loss).
    Topology,
}

impl ImrPolicy {
    /// The rank that will hold `rank`'s data.
    ///
    /// Pair/Ring buddies are pure functions of rank and size. Topology
    /// buddies depend on the rank→node layout — use [`ImrPolicy::maps`];
    /// without one, Topology degenerates to its one-rank-per-node shape,
    /// a plain ring.
    pub fn holder_of(self, rank: usize, size: usize) -> usize {
        match self {
            ImrPolicy::Pair => rank ^ 1,
            ImrPolicy::Ring | ImrPolicy::Topology => (rank + 1) % size,
        }
    }

    /// The rank whose data `rank` holds. See [`ImrPolicy::holder_of`].
    pub fn source_of(self, rank: usize, size: usize) -> usize {
        match self {
            ImrPolicy::Pair => rank ^ 1,
            ImrPolicy::Ring | ImrPolicy::Topology => (rank + size - 1) % size,
        }
    }

    /// Full buddy maps for a communicator whose rank→node layout is
    /// `nodes`: returns `(holder, source)` where `holder[r]` stores `r`'s
    /// data and `source[r]` is the rank whose data `r` holds.
    pub fn maps(self, nodes: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let n = nodes.len();
        match self {
            ImrPolicy::Pair | ImrPolicy::Ring => (
                (0..n).map(|r| self.holder_of(r, n)).collect(),
                (0..n).map(|r| self.source_of(r, n)).collect(),
            ),
            ImrPolicy::Topology => {
                // The same placement helper the redundancy-store tier uses:
                // round-robin across node buckets, most-loaded node first.
                // Adjacent positions in that order sit on different nodes
                // whenever the rank counts allow it.
                let order = redstore::node_interleaved_order(nodes);
                let mut holder = vec![0usize; n];
                let mut source = vec![0usize; n];
                for (i, &r) in order.iter().enumerate() {
                    // `order` is a permutation of 0..n, so these lookups
                    // cannot miss; stay panic-free on the recovery path
                    // anyway — a malformed map must surface as a bad
                    // placement, not a dead rank.
                    let Some(&next) = order.get((i + 1) % n) else {
                        continue;
                    };
                    if let Some(h) = holder.get_mut(r) {
                        *h = next;
                    }
                    if let Some(s) = source.get_mut(next) {
                        *s = r;
                    }
                }
                (holder, source)
            }
        }
    }

    /// Default policy for a rank→node layout: Topology as soon as any node
    /// hosts two or more communicator ranks (and more than one node
    /// exists — otherwise no placement can help), else the historical
    /// parity rule (Pair when even, Ring when odd).
    pub fn auto(nodes: &[usize]) -> ImrPolicy {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        let co_located = sorted
            .iter()
            .zip(sorted.iter().skip(1))
            .any(|(a, b)| a == b);
        let multi_node = sorted.first() != sorted.last();
        if co_located && multi_node {
            ImrPolicy::Topology
        } else if nodes.len().is_multiple_of(2) {
            ImrPolicy::Pair
        } else {
            ImrPolicy::Ring
        }
    }

    fn validate(self, size: usize) {
        assert!(size >= 2, "IMR needs at least 2 ranks");
        if self == ImrPolicy::Pair {
            assert!(
                size.is_multiple_of(2),
                "Pair policy requires an even rank count"
            );
        }
    }
}

/// IMR errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImrError {
    /// Both a member's local copy and its buddy copy are gone (e.g. a whole
    /// buddy pair failed) — IMR cannot recover this data.
    DataLost { member: u32, rank: usize },
    /// Communication failed mid-operation (recover via Fenix).
    Mpi(MpiError),
}

impl From<MpiError> for ImrError {
    fn from(e: MpiError) -> Self {
        ImrError::Mpi(e)
    }
}

impl From<ImrError> for MpiError {
    fn from(e: ImrError) -> Self {
        match e {
            ImrError::Mpi(e) => e,
            // Both replicas gone: no layer below can recover this, so the
            // job aborts — through the error channel, keeping the surviving
            // ranks' collectives matched instead of panicking one rank.
            ImrError::DataLost { .. } => MpiError::Aborted,
        }
    }
}

impl std::fmt::Display for ImrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImrError::DataLost { member, rank } => {
                write!(f, "IMR member {member} of rank {rank} unrecoverable")
            }
            ImrError::Mpi(e) => write!(f, "IMR communication failed: {e}"),
        }
    }
}

impl std::error::Error for ImrError {}

/// Decode the 8-byte little-endian version prefix of a restore payload.
///
/// A short payload means the peer sent a malformed frame; that is a
/// transport-level fault the recovering rank must survive, not panic on.
fn version_header(payload: &[u8]) -> Result<u64, ImrError> {
    if payload.len() < 8 {
        return Err(ImrError::Mpi(MpiError::TypeMismatch {
            expected: 8,
            got: payload.len(),
        }));
    }
    let mut head = [0u8; 8];
    head.copy_from_slice(&payload[..8]);
    Ok(u64::from_le_bytes(head))
}

#[derive(Clone, Debug)]
struct Held {
    owner: usize,
    version: u64,
    data: Bytes,
}

/// Per-rank IMR memory. Create it *outside* the Fenix run loop so survivor
/// copies persist across repairs.
#[derive(Default)]
pub struct ImrStore {
    /// member id → this rank's own latest committed data.
    own: Mutex<HashMap<u32, (u64, Bytes)>>,
    /// member id → the buddy data this rank holds.
    held: Mutex<HashMap<u32, Held>>,
}

impl ImrStore {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// This rank's latest committed copy of a member.
    pub fn own(&self, member: u32) -> Option<(u64, Bytes)> {
        self.own.lock().get(&member).cloned()
    }

    /// Latest committed version of a member, if any.
    pub fn latest_version(&self, member: u32) -> Option<u64> {
        self.own.lock().get(&member).map(|(v, _)| *v)
    }

    /// Total bytes resident (own + held) — IMR's memory-overhead figure.
    pub fn resident_bytes(&self) -> usize {
        let own: usize = self.own.lock().values().map(|(_, b)| b.len()).sum();
        let held: usize = self.held.lock().values().map(|h| h.data.len()).sum();
        own + held
    }

    /// Drop everything (a recovered rank starts empty anyway; tests).
    pub fn clear(&self) {
        self.own.lock().clear();
        self.held.lock().clear();
    }

    /// Chaos hook: silently flip the last byte of the buddy copy this rank
    /// holds for `member`, as a bit-rotted partner store would. Returns
    /// `false` when nothing is held. IMR itself ships bytes verbatim —
    /// integrity is the payload framing's job — so the damage must surface
    /// at restore-unpack on the recovering rank, never as a panic.
    pub fn tamper_held(&self, member: u32) -> bool {
        let mut held = self.held.lock();
        match held.get_mut(&member) {
            Some(h) if !h.data.is_empty() => {
                let mut out = h.data.to_vec();
                let last = out.len() - 1;
                out[last] ^= 0xFF;
                h.data = Bytes::from(out);
                true
            }
            _ => false,
        }
    }
}

const IMR_TAG_BASE: u64 = 0x0100_0000;

/// A data group bound to the current resilient communicator.
pub struct DataGroup<'a> {
    comm: &'a Comm,
    policy: ImrPolicy,
    store: Arc<ImrStore>,
    /// `holder[r]` stores rank `r`'s data; `source[r]` is the rank whose
    /// data `r` holds. Fixed at construction — for [`ImrPolicy::Topology`]
    /// they derive from the communicator's rank→node layout.
    holder: Vec<usize>,
    source: Vec<usize>,
}

impl<'a> DataGroup<'a> {
    pub fn new(store: Arc<ImrStore>, comm: &'a Comm, policy: ImrPolicy) -> Self {
        policy.validate(comm.size());
        let nodes = redstore::comm_node_map(comm);
        let (holder, source) = policy.maps(&nodes);
        DataGroup {
            comm,
            policy,
            store,
            holder,
            source,
        }
    }

    pub fn policy(&self) -> ImrPolicy {
        self.policy
    }

    /// The rank holding `rank`'s data under this group's buddy map.
    /// Out-of-range ranks map to themselves (no remote copy).
    pub fn holder_of(&self, rank: usize) -> usize {
        self.holder.get(rank).copied().unwrap_or(rank)
    }

    fn tag(member: u32, leg: u64) -> u64 {
        IMR_TAG_BASE | (leg << 32) | member as u64
    }

    /// Collectively commit `data` as `member`'s checkpoint at `version`.
    /// Every rank of the communicator must call with its own data: the local
    /// copy is kept and a remote copy is exchanged with the buddy.
    ///
    /// The commit is two-phase (Fenix's `data_commit`): the exchange happens
    /// first, then a fault-tolerant agreement decides — identically on every
    /// survivor — whether the version is committed. A failure during the
    /// store therefore leaves *every* rank on the previous committed
    /// version, never a mix.
    pub fn store(&self, member: u32, version: u64, data: Bytes) -> MpiResult<()> {
        let me = self.comm.rank();
        let out_of_range = |rank: usize| MpiError::RankOutOfRange {
            rank,
            size: self.holder.len(),
        };
        let to = self.holder.get(me).copied().ok_or(out_of_range(me))?;
        let from = self.source.get(me).copied().ok_or(out_of_range(me))?;

        // Phase 1: exchange. My data goes to my holder; I receive my
        // source's data. Nothing is committed yet.
        let exchange = (|| -> MpiResult<Bytes> {
            self.comm
                .send_bytes(to, Self::tag(member, 0), data.clone())?;
            let (buddy_data, _) = self.comm.recv_bytes(Some(from), Self::tag(member, 0))?;
            Ok(buddy_data)
        })();
        match &exchange {
            // This rank is going down or the job is aborting: unwind now —
            // the agreement below would never complete.
            Err(MpiError::Killed) => return Err(MpiError::Killed),
            Err(MpiError::Aborted) => return Err(MpiError::Aborted),
            // Recoverable failures and local argument errors still reach the
            // agreement: every survivor must learn the commit is off.
            Ok(_)
            | Err(MpiError::ProcFailed { .. })
            | Err(MpiError::Revoked)
            | Err(MpiError::RankOutOfRange { .. })
            | Err(MpiError::TypeMismatch { .. }) => {}
        }

        // Phase 2: agree on commit. The agreement value is identical on all
        // survivors, so either everyone commits or nobody does. The sequence
        // number mixes in the member id so concurrent members cannot collide.
        let seq = ((member as u64) << 48) | (version & 0xffff_ffff_ffff);
        let outcome = self.comm.agree(seq, exchange.is_ok() as u64)?;
        if outcome.flags & 1 == 1 && outcome.failed.is_empty() {
            match exchange {
                Ok(buddy_data) => {
                    self.store.own.lock().insert(member, (version, data));
                    self.store.held.lock().insert(
                        member,
                        Held {
                            owner: from,
                            version,
                            data: buddy_data,
                        },
                    );
                    Ok(())
                }
                // Agreed flags imply every rank's exchange succeeded; if ours
                // did not, the agreement is stale — surface the failure it
                // missed rather than panic the rank mid-commit.
                Err(e) => Err(e),
            }
        } else {
            match exchange {
                Err(e) => Err(e),
                Ok(_) => Err(MpiError::ProcFailed {
                    ranks: outcome.failed,
                }),
            }
        }
    }

    /// Collectively restore `member` after a repair.
    ///
    /// `recovered` is the list of resilient-communicator ranks that were
    /// just replaced by spares ([`crate::Fenix::recovered_ranks`]). Survivors
    /// recover from their local copy instantly; each recovered rank receives
    /// its lost data from the rank holding it, and redundancy is then
    /// re-established under the current buddy maps with a full exchange.
    ///
    /// Holder discovery is possession-based (an allgather of each rank's
    /// held-owner), not map-based: a repair can move replacement ranks onto
    /// different nodes, which shifts [`ImrPolicy::Topology`] maps away from
    /// the ones the data was stored under. The closing exchange is what
    /// brings the store back in line with the recomputed maps.
    ///
    /// Every rank of the communicator must call with the same `recovered`
    /// list. Fails with [`ImrError::DataLost`] when a recovered rank's
    /// holder was also replaced.
    pub fn restore(&self, member: u32, recovered: &[usize]) -> Result<(u64, Bytes), ImrError> {
        let me = self.comm.rank();

        // Whose data does each rank actually hold? Replacements report -1:
        // their stores are empty (and must not shadow a survivor's claim).
        let claim: i64 = if recovered.contains(&me) {
            -1
        } else {
            self.store
                .held
                .lock()
                .get(&member)
                .map_or(-1, |h| h.owner as i64)
        };
        let owners = self.comm.allgather(&[claim]).map_err(ImrError::from)?;
        let holder_of = |q: usize| owners.iter().position(|&o| o == q as i64);

        // Feasibility check is deterministic — the gathered view is
        // identical everywhere, so every rank reaches the same verdict.
        for &q in recovered {
            if holder_of(q).is_none() {
                return Err(ImrError::DataLost { member, rank: q });
            }
        }

        // Sends first (buffered), then receives: no ordering deadlock.
        for &q in recovered {
            if holder_of(q) == Some(me) && me != q {
                let held = self.store.held.lock().get(&member).cloned();
                let held = held.ok_or(ImrError::DataLost { member, rank: q })?;
                debug_assert_eq!(held.owner, q, "held data owner mismatch");
                let mut payload = Vec::with_capacity(8 + held.data.len());
                payload.extend_from_slice(&held.version.to_le_bytes());
                payload.extend_from_slice(&held.data);
                self.comm
                    .send_bytes(q, Self::tag(member, 1), Bytes::from(payload))
                    .map_err(ImrError::from)?;
            }
        }

        let (version, data) = if recovered.contains(&me) {
            // Feasibility was checked above; losing the holder between the
            // gather and here is a data-lost condition, not a panic.
            let holder = holder_of(me).ok_or(ImrError::DataLost { member, rank: me })?;
            let (payload, _) = self
                .comm
                .recv_bytes(Some(holder), Self::tag(member, 1))
                .map_err(ImrError::from)?;
            let version = version_header(&payload)?;
            let data = payload.slice(8..);
            self.store
                .own
                .lock()
                .insert(member, (version, data.clone()));
            (version, data)
        } else {
            // Survivor: local copy is authoritative (this is IMR's "quick,
            // local recovery on surviving ranks").
            self.store
                .own
                .lock()
                .get(&member)
                .cloned()
                .ok_or(ImrError::DataLost { member, rank: me })?
        };

        // Re-establish redundancy under the *current* maps: every rank's
        // copy moves to its present-day holder, restoring the placement the
        // repair may have disturbed.
        let out_of_range = |rank: usize| {
            ImrError::Mpi(MpiError::RankOutOfRange {
                rank,
                size: self.holder.len(),
            })
        };
        let to = self.holder.get(me).copied().ok_or(out_of_range(me))?;
        let mut payload = Vec::with_capacity(8 + data.len());
        payload.extend_from_slice(&version.to_le_bytes());
        payload.extend_from_slice(&data);
        self.comm
            .send_bytes(to, Self::tag(member, 2), Bytes::from(payload))
            .map_err(ImrError::from)?;
        let source = self.source.get(me).copied().ok_or(out_of_range(me))?;
        let (payload, _) = self
            .comm
            .recv_bytes(Some(source), Self::tag(member, 2))
            .map_err(ImrError::from)?;
        let sversion = version_header(&payload)?;
        self.store.held.lock().insert(
            member,
            Held {
                owner: source,
                version: sversion,
                data: payload.slice(8..),
            },
        );

        Ok((version, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_header_decodes_and_rejects_short_frames() {
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"xyz");
        assert_eq!(version_header(&payload).unwrap(), 7);
        assert!(matches!(
            version_header(&payload[..5]),
            Err(ImrError::Mpi(MpiError::TypeMismatch {
                expected: 8,
                got: 5
            }))
        ));
    }

    #[test]
    fn pair_policy_is_involutive() {
        for n in [2usize, 4, 8] {
            for r in 0..n {
                let h = ImrPolicy::Pair.holder_of(r, n);
                assert_eq!(ImrPolicy::Pair.holder_of(h, n), r);
                assert_eq!(ImrPolicy::Pair.source_of(r, n), h);
            }
        }
    }

    #[test]
    fn ring_policy_covers_all_ranks() {
        let n = 5;
        let mut held_by: Vec<usize> = (0..n).map(|r| ImrPolicy::Ring.holder_of(r, n)).collect();
        held_by.sort_unstable();
        assert_eq!(held_by, (0..n).collect::<Vec<_>>());
        for r in 0..n {
            let h = ImrPolicy::Ring.holder_of(r, n);
            assert_eq!(ImrPolicy::Ring.source_of(h, n), r);
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn pair_rejects_odd_sizes() {
        ImrPolicy::Pair.validate(3);
    }

    #[test]
    fn topology_buddies_cross_nodes_when_the_layout_permits() {
        // Two nodes × two ranks: Pair would co-locate (0↔1 on node 0,
        // 2↔3 on node 1) — exactly the layouts where Topology must differ.
        let nodes = [0usize, 0, 1, 1];
        let (holder, source) = ImrPolicy::Topology.maps(&nodes);
        let mut holders = holder.clone();
        holders.sort_unstable();
        assert_eq!(holders, vec![0, 1, 2, 3], "holder map is a permutation");
        for r in 0..nodes.len() {
            assert_ne!(
                nodes[r], nodes[holder[r]],
                "rank {r}'s buddy must sit on another node"
            );
            assert_eq!(source[holder[r]], r, "holder/source maps are inverse");
        }
    }

    #[test]
    fn topology_balanced_layouts_never_colocate() {
        for (n_nodes, rpn) in [(2usize, 2usize), (2, 3), (3, 2), (4, 2), (3, 3)] {
            let nodes: Vec<usize> = (0..n_nodes * rpn).map(|r| r / rpn).collect();
            let (holder, _) = ImrPolicy::Topology.maps(&nodes);
            for (r, &h) in holder.iter().enumerate() {
                assert_ne!(nodes[r], nodes[h], "{n_nodes}x{rpn}: rank {r} → {h}");
            }
        }
    }

    #[test]
    fn auto_picks_topology_only_for_multi_rank_nodes() {
        assert_eq!(ImrPolicy::auto(&[0, 1, 2, 3]), ImrPolicy::Pair);
        assert_eq!(ImrPolicy::auto(&[0, 1, 2]), ImrPolicy::Ring);
        assert_eq!(ImrPolicy::auto(&[0, 0, 1, 1]), ImrPolicy::Topology);
        assert_eq!(ImrPolicy::auto(&[0, 0, 0, 1]), ImrPolicy::Topology);
        // All ranks on one node: no placement helps — historical rule.
        assert_eq!(ImrPolicy::auto(&[0, 0, 0, 0]), ImrPolicy::Pair);
    }

    #[test]
    fn store_tracks_versions_and_bytes() {
        let s = ImrStore::new();
        assert_eq!(s.latest_version(0), None);
        s.own.lock().insert(0, (3, Bytes::from_static(b"abc")));
        assert_eq!(s.latest_version(0), Some(3));
        assert_eq!(s.resident_bytes(), 3);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn tamper_held_flips_exactly_one_byte() {
        let s = ImrStore::new();
        assert!(!s.tamper_held(0), "nothing held yet");
        s.held.lock().insert(
            0,
            Held {
                owner: 1,
                version: 2,
                data: Bytes::from_static(b"abc"),
            },
        );
        assert!(s.tamper_held(0));
        let got = s.held.lock().get(&0).cloned().map(|h| h.data);
        assert_eq!(got.as_deref(), Some(&[b'a', b'b', b'c' ^ 0xFF][..]));
    }

    #[test]
    fn unrecoverable_losses_abort_through_the_error_channel() {
        assert_eq!(
            MpiError::from(ImrError::DataLost { member: 0, rank: 1 }),
            MpiError::Aborted
        );
        assert_eq!(
            MpiError::from(ImrError::Mpi(MpiError::Killed)),
            MpiError::Killed
        );
    }
}
