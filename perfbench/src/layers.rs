//! Per-layer measurements: counts and virtual intervals read from a traced
//! job's `Telemetry::snapshot()`, and host time of direct calls into each
//! layer's public functions at the sizes the workload's job uses.
//!
//! Host time per layer is deliberately not taken from
//! `RunRecord.breakdown`: under DES its phase intervals are host time that
//! includes other ranks' turns, and its `other` subtracts host phase time
//! from virtual wall time. See `perfbench/README.md`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, TimeScale};
use redstore::{codec, RedundancyMode};
use resilience::IterativeApp;
use simmpi::{FaultPlan, MpiResult, RankCtx, Universe, UniverseConfig};
use telemetry::{Event, TraceSnapshot};
use veloc::{Client, Config, Mode, VecRegion};

use crate::stats::median;
use crate::workload::Workload;

/// Counts and virtual intervals of one traced job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceCounts {
    pub mpi_calls: u64,
    /// ULFM revoke + agree + shrink events.
    pub ulfm_ops: u64,
    /// Checkpoints committed to node-local scratch (all ranks).
    pub checkpoints: u64,
    /// Restarts that found and applied a checkpoint (all ranks).
    pub restarts: u64,
    pub local_bytes: u64,
    pub flush_bytes: u64,
    pub regions: u64,
    pub capture_bytes: u64,
    pub restores: u64,
    /// Distinct Fenix repair epochs that completed.
    pub repairs: u64,
    /// Virtual time from the first `rank_killed` to the last `repair_end`.
    pub repair_virtual_ns: u64,
    /// Ring records evicted before the snapshot.
    pub evicted: u64,
}

pub fn count(snap: &TraceSnapshot) -> TraceCounts {
    let mut c = TraceCounts {
        evicted: snap.dropped,
        ..TraceCounts::default()
    };
    let mut epochs = BTreeSet::new();
    let mut first_kill = None;
    let mut last_repair = None;
    for e in &snap.events {
        match &e.event {
            Event::MpiCall { .. } => c.mpi_calls += 1,
            Event::Revoke | Event::Agree { .. } | Event::Shrink { .. } => c.ulfm_ops += 1,
            Event::CheckpointLocal { bytes, .. } => {
                c.checkpoints += 1;
                c.local_bytes += bytes;
            }
            Event::FlushDone { bytes, .. } => c.flush_bytes += bytes,
            Event::RestartEnd { ok: true, .. } => c.restarts += 1,
            Event::RegionEnter { .. } => c.regions += 1,
            Event::RegionCapture { bytes, .. } => c.capture_bytes += bytes,
            Event::RegionRestore { .. } => c.restores += 1,
            Event::RankKilled => {
                first_kill.get_or_insert(e.t_ns);
            }
            Event::RepairEnd { epoch, .. } => {
                epochs.insert(*epoch);
                last_repair = Some(e.t_ns);
            }
            _ => {}
        }
    }
    c.repairs = epochs.len() as u64;
    if let (Some(k), Some(r)) = (first_kill, last_repair) {
        c.repair_virtual_ns = r.saturating_sub(k);
    }
    c
}

/// What one rank of the job checkpoints: the byte size of each view it
/// protects, and the length of those views packed into one blob (the
/// payload a peer-memory tier encodes).
#[derive(Clone, Debug, Default)]
pub struct Payload {
    pub view_bytes: Vec<usize>,
    pub packed_bytes: usize,
}

/// Build the application on the job's active ranks once and measure rank
/// 0's checkpoint payload.
pub fn probe_payload(w: &Workload, app: &dyn IterativeApp) -> Payload {
    let out = std::sync::Mutex::new(Payload::default());
    let report = Universe::launch(
        &w.cluster(false),
        UniverseConfig {
            backend: w.backend(),
            ..UniverseConfig::default()
        },
        Arc::new(FaultPlan::none()),
        |ctx: &mut RankCtx| -> MpiResult<()> {
            let comm = ctx.world().clone();
            let state = app.init_rank(ctx, &comm);
            if comm.rank() == 0 {
                let views = state.checkpoint_views();
                let parts: Vec<(u32, Bytes)> = views
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i as u32, v.snapshot()))
                    .collect();
                *out.lock().expect("payload lock") = Payload {
                    view_bytes: views.iter().map(|v| v.meta().bytes).collect(),
                    packed_bytes: veloc::serial::pack(&parts).len(),
                };
            }
            Ok(())
        },
    );
    assert!(report.all_ok(), "payload probe failed");
    out.into_inner().expect("payload lock")
}

/// Median host time of one direct call, per stage.
#[derive(Clone, Debug, Default)]
pub struct VelocCalls {
    pub checkpoint_s: f64,
    pub restart_s: f64,
    pub read_s: f64,
    pub verify_s: f64,
    pub apply_s: f64,
}

/// Restart verification fan-out `Client::restart` uses.
const RESTART_WORKERS: usize = 4;
/// Untimed rounds before the direct-call samples.
const WARMUP: usize = 2;

/// A wall-clock cluster whose modeled transfers cost nothing, so a direct
/// call's host time is the layer's own work.
fn instant_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    })
}

/// `reps` rounds of one full `Client::checkpoint` (synchronous flush, as
/// on the DES backend) followed by one `restart_with_workers` of it.
pub fn veloc_calls(payload: &Payload, reps: usize) -> VelocCalls {
    let client = Client::init(
        instant_cluster(),
        0,
        Config {
            mode: Mode::Single,
            async_flush: false,
        },
    );
    let regions: Vec<VecRegion<u8>> = payload
        .view_bytes
        .iter()
        .enumerate()
        .map(|(i, &n)| VecRegion::new((0..n).map(|b| (b * 7 + i) as u8).collect()))
        .collect();
    for (i, r) in regions.iter().enumerate() {
        client.protect(i as u32, Arc::new(r.clone()));
    }
    let mut samples: [Vec<f64>; 5] = Default::default();
    for round in 0..WARMUP + reps {
        // Touch every region so each checkpoint is a full frame, as in the
        // job, where every step rewrites the grid.
        for r in &regions {
            if let Some(b) = r.lock().first_mut() {
                *b = b.wrapping_add(1);
            }
        }
        let version = round as u64 + 1;
        let t = Instant::now();
        client
            .checkpoint("bench", version)
            .expect("direct checkpoint");
        let ckpt = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = client
            .restart_with_workers("bench", version, RESTART_WORKERS)
            .expect("direct restart");
        let restart = t.elapsed().as_secs_f64();
        client.prune("bench", 1);
        if round >= WARMUP {
            let stage = [
                ckpt,
                restart,
                report.read_ns as f64 / 1e9,
                report.verify_ns as f64 / 1e9,
                report.apply_ns as f64 / 1e9,
            ];
            for (s, v) in samples.iter_mut().zip(stage) {
                s.push(v);
            }
        }
    }
    let [c, r, rd, vf, ap] = samples.map(|s| median(&s));
    VelocCalls {
        checkpoint_s: c,
        restart_s: r,
        read_s: rd,
        verify_s: vf,
        apply_s: ap,
    }
}

/// The redundancy mode the job's placement picks for its active ranks.
pub fn redstore_mode(w: &Workload) -> RedundancyMode {
    let nodes: Vec<usize> = (0..w.active).map(|r| r / w.ranks_per_node).collect();
    RedundancyMode::auto(&nodes).expect("a feasible redundancy mode")
}

fn encode(mode: RedundancyMode, data: &[u8]) -> Vec<Vec<u8>> {
    match mode {
        RedundancyMode::Replicate { k } => (1..k).map(|_| data.to_vec()).collect(),
        RedundancyMode::XorParity { width } => codec::xor_encode(data, width - 1).expect("xor"),
        RedundancyMode::ReedSolomon { width, parity } => {
            codec::rs_encode(data, width - parity, parity).expect("rs")
        }
    }
}

/// Rebuild the payload with its owner's shard lost, as a replacement rank
/// does after losing one rank per group. Replication ships only the peer
/// copies, so any one of them is the payload.
fn reconstruct(mode: RedundancyMode, shards: &[Vec<u8>], len: usize) -> Vec<u8> {
    let erased = || {
        let mut slots: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        slots[0] = None;
        slots
    };
    match mode {
        RedundancyMode::Replicate { .. } => shards[0].clone(),
        RedundancyMode::XorParity { width } => {
            codec::xor_decode(&erased(), width - 1, len).expect("xor decode")
        }
        RedundancyMode::ReedSolomon { width, parity } => {
            codec::rs_decode(&erased(), width - parity, parity, len).expect("rs decode")
        }
    }
}

/// Median host time of one encode and one reconstruct at the job's mode
/// and packed payload size. Checks the round trip.
pub fn redstore_calls(mode: RedundancyMode, payload_bytes: usize, reps: usize) -> (f64, f64) {
    let data: Vec<u8> = (0..payload_bytes).map(|i| (i * 31 + 7) as u8).collect();
    let (mut enc, mut rec) = (Vec::new(), Vec::new());
    for round in 0..WARMUP + reps {
        let t = Instant::now();
        let shards = black_box(encode(mode, &data));
        let e = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = black_box(reconstruct(mode, &shards, data.len()));
        let r = t.elapsed().as_secs_f64();
        assert!(back == data, "redstore round trip lost data");
        if round >= WARMUP {
            enc.push(e);
            rec.push(r);
        }
    }
    (median(&enc), median(&rec))
}

/// Median host time of a DES `Universe::launch` with an empty rank body at
/// the job's full rank count.
pub fn launch_calls(w: &Workload, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for round in 0..WARMUP + reps {
        let cluster = w.cluster(true);
        let t = Instant::now();
        let report = Universe::launch(
            &cluster,
            UniverseConfig {
                backend: w.backend(),
                ..UniverseConfig::default()
            },
            Arc::new(FaultPlan::none()),
            |_ctx: &mut RankCtx| -> MpiResult<()> { Ok(()) },
        );
        let s = t.elapsed().as_secs_f64();
        assert!(report.all_ok(), "empty launch failed");
        if round >= WARMUP {
            samples.push(s);
        }
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TimedEvent;

    fn at(t_ns: u64, rank: u32, event: Event) -> TimedEvent {
        TimedEvent { t_ns, rank, event }
    }

    #[test]
    fn counts_and_repair_interval_from_a_snapshot() {
        let snap = TraceSnapshot {
            events: vec![
                at(
                    5,
                    0,
                    Event::CheckpointLocal {
                        name: "h".into(),
                        version: 1,
                        bytes: 100,
                    },
                ),
                at(10, 3, Event::RankKilled),
                at(12, 0, Event::Revoke),
                at(13, 0, Event::Agree { seq: 1, flags: 0 }),
                at(
                    20,
                    0,
                    Event::RepairEnd {
                        epoch: 1,
                        survivors: 7,
                        spares_left: 0,
                    },
                ),
                at(
                    25,
                    1,
                    Event::RepairEnd {
                        epoch: 1,
                        survivors: 7,
                        spares_left: 0,
                    },
                ),
                at(
                    30,
                    1,
                    Event::RestartEnd {
                        name: "h".into(),
                        version: 1,
                        ok: true,
                    },
                ),
                at(
                    31,
                    2,
                    Event::RestartEnd {
                        name: "h".into(),
                        version: 1,
                        ok: false,
                    },
                ),
            ],
            dropped: 0,
            pushed: 8,
        };
        let c = count(&snap);
        assert_eq!(c.checkpoints, 1);
        assert_eq!(c.local_bytes, 100);
        assert_eq!(c.ulfm_ops, 2);
        assert_eq!(c.repairs, 1, "one epoch, seen on two ranks");
        assert_eq!(c.repair_virtual_ns, 15);
        assert_eq!(c.restarts, 1, "a failed restart is not counted");
    }

    #[test]
    fn redstore_round_trips_in_every_mode() {
        for mode in [
            RedundancyMode::Replicate { k: 2 },
            RedundancyMode::XorParity { width: 3 },
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
        ] {
            let (e, r) = redstore_calls(mode, 4096, 1);
            assert!(e > 0.0 && r >= 0.0);
        }
    }

    #[test]
    fn minimd_job_uses_reed_solomon() {
        let w = Workload::build("minimd_redstore", 1).unwrap();
        assert_eq!(
            redstore_mode(&w),
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2
            }
        );
    }
}
