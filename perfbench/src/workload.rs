//! The benchmark's workloads: job shapes, fault plans and the inputs each
//! derives from `--seed`. See `perfbench/README.md` for why each exists.

use std::sync::Arc;

use apps::{Heatdis, MiniMd};
use cluster::{Cluster, ClusterConfig};
use resilience::{ExperimentConfig, IterativeApp, Strategy};
use simmpi::{Backend, FaultPlan};
use telemetry::Telemetry;

/// The fault-point label every kill fires at (the top of an iteration).
pub const KILL_SITE: &str = "iter";

#[derive(Clone, Debug, PartialEq)]
pub enum AppShape {
    Heatdis {
        /// Grid rows each rank owns; its two `rows × cols` f64 buffers
        /// make up the rank's data.
        rows: usize,
        cols: usize,
        iterations: u64,
    },
    MiniMd {
        cells: [usize; 3],
        iterations: u64,
    },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub app: AppShape,
    pub strategy: Strategy,
    /// Ranks running the application.
    pub active: usize,
    /// Fenix spare ranks (whole nodes, placed after the active ones).
    pub spares: usize,
    pub ranks_per_node: usize,
    pub checkpoints: u64,
    /// `(rank, iteration)` of every planned kill.
    pub kills: Vec<(usize, u64)>,
    /// Fenix repairs a correct run of the failure-injected job performs.
    pub expect_repairs: u64,
    /// Whole-job relaunches a correct run performs.
    pub expect_relaunches: usize,
}

pub const NAMES: [&str; 3] = ["heatdis_veloc", "heatdis_restart", "minimd_redstore"];

/// SplitMix64 step: a well-mixed 64-bit value from any seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The DES schedule seed every job runs on. Pinned, not drawn from
/// `--seed`: the schedule decides how far survivors run ahead before they
/// observe a failure, which moves a heatdis job's recovery cost by ±30%
/// between schedules and, on some schedules, splits the MiniMD node loss
/// into two repairs. A pinned schedule replays the same recovery path in
/// every run, so that cost is comparable across runs and commits.
pub const DES_SEED: u64 = 0x5eed;

/// Heatdis grid rows per rank for `seed`: `base` plus 0, 1 or 2. The
/// seed sizes the problem; one row is under 1% of a rank's grid, so the
/// job keeps its shape.
fn heatdis_rows(base: usize, seed: u64) -> usize {
    base + (mix(seed) % 3) as usize
}

/// MiniMD checkpoint count for `seed`: 6 or 5, i.e. every 10 or every 15
/// iterations. MiniMD's size only moves in whole FCC cells (12% of a
/// rank's atoms), so the seed picks the checkpoint interval instead. Both
/// intervals checkpoint at iteration 29, the last one before the kill, so
/// the job rolls back to the same iteration either way.
fn minimd_checkpoints(seed: u64) -> u64 {
    6 - mix(seed) % 2
}

impl Workload {
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            // Write-heavy: six full checkpoints (after iterations 9, 19, …,
            // 59) and one in-place repair. The kill lands at the top of
            // iteration 39, late in the interval between two checkpoints,
            // as in the paper.
            "heatdis_veloc" => Workload {
                name: "heatdis_veloc",
                app: AppShape::Heatdis {
                    rows: heatdis_rows(128, seed),
                    cols: 1024,
                    iterations: 60,
                },
                strategy: Strategy::FenixKokkosResilience,
                active: 8,
                spares: 1,
                ranks_per_node: 1,
                checkpoints: 6,
                kills: vec![(3, 39)],
                expect_repairs: 1,
                expect_relaunches: 0,
            },
            // Read-heavy: three whole-job relaunches, each restoring all
            // ranks and recomputing at most one iteration. The victim is
            // the same rank every time: distinct victims at one iteration
            // can die in the same launch (ranks drift apart between
            // halo exchanges), which would make the relaunch count depend
            // on the schedule. Each kill purges the victim's node scratch,
            // so every restore reads seven ranks from scratch and one from
            // the parallel filesystem.
            "heatdis_restart" => Workload {
                name: "heatdis_restart",
                app: AppShape::Heatdis {
                    rows: heatdis_rows(512, seed),
                    cols: 1024,
                    iterations: 12,
                },
                strategy: Strategy::KokkosResilience,
                active: 8,
                spares: 0,
                ranks_per_node: 1,
                checkpoints: 2,
                kills: vec![(1, 7), (1, 7), (1, 7)],
                expect_repairs: 0,
                expect_relaunches: 3,
            },
            // Compute-bound with peer-memory checkpoints; loses both ranks
            // of node 1 at once.
            "minimd_redstore" => Workload {
                name: "minimd_redstore",
                app: AppShape::MiniMd {
                    cells: [8, 4, 4],
                    iterations: 60,
                },
                strategy: Strategy::FenixRedstore,
                active: 8,
                spares: 2,
                ranks_per_node: 2,
                checkpoints: minimd_checkpoints(seed),
                kills: vec![(2, 35), (3, 35)],
                expect_repairs: 1,
                expect_relaunches: 0,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn iterations(&self) -> u64 {
        match self.app {
            AppShape::Heatdis { iterations, .. } | AppShape::MiniMd { iterations, .. } => {
                iterations
            }
        }
    }

    pub fn app(&self) -> Arc<dyn IterativeApp> {
        match self.app {
            AppShape::Heatdis {
                rows,
                cols,
                iterations,
            } => Arc::new(Heatdis::fixed(2 * 8 * rows * cols, cols, iterations)),
            AppShape::MiniMd { cells, iterations } => Arc::new(MiniMd::new(cells, iterations)),
        }
    }

    /// A fresh virtual-time cluster for one job. `with_spares = false`
    /// drops the spare nodes (the unprotected reference run has no use
    /// for them, and would otherwise run the application on them).
    pub fn cluster(&self, with_spares: bool) -> Cluster {
        let ranks = self.active + if with_spares { self.spares } else { 0 };
        Cluster::new(ClusterConfig {
            nodes: ranks / self.ranks_per_node,
            ranks_per_node: self.ranks_per_node,
            virtual_time: true,
            ..ClusterConfig::default()
        })
    }

    pub fn backend(&self) -> Backend {
        Backend::Des { seed: DES_SEED }
    }

    pub fn config(&self, strategy: Strategy, telemetry: Option<Telemetry>) -> ExperimentConfig {
        ExperimentConfig {
            strategy,
            spares: self.spares,
            checkpoints: self.checkpoints,
            telemetry,
            backend: self.backend(),
            ..ExperimentConfig::default()
        }
    }

    /// A fresh fault plan. Kills fire at most once per plan, so every job
    /// needs its own: a reused plan silently runs failure-free.
    pub fn plan(&self) -> Arc<FaultPlan> {
        let mut plan = FaultPlan::none();
        for &(rank, at) in &self.kills {
            plan = plan.and_kill(rank, KILL_SITE, at);
        }
        Arc::new(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_builds_and_spares_fill_whole_nodes() {
        for name in NAMES {
            let w = Workload::build(name, 7).expect(name);
            assert_eq!(w.name, name);
            assert_eq!(w.active % w.ranks_per_node, 0, "{name}");
            assert_eq!(w.spares % w.ranks_per_node, 0, "{name}");
            assert_eq!(w.plan().kills().len(), w.kills.len());
            assert!(w.kills.iter().all(|&(r, _)| r < w.active));
        }
        assert!(Workload::build("nope", 7).is_none());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in NAMES {
            let a = Workload::build(name, 11).unwrap();
            let b = Workload::build(name, 11).unwrap();
            assert_eq!((&a.app, a.checkpoints), (&b.app, b.checkpoints));
            let inputs: BTreeSet<String> = (0..32)
                .map(|seed| {
                    let w = Workload::build(name, seed).unwrap();
                    format!("{:?} {}", w.app, w.checkpoints)
                })
                .collect();
            assert!(inputs.len() > 1, "{name}: the seed must move an input");
        }
        let rows: BTreeSet<usize> = (0..32).map(|s| heatdis_rows(128, s)).collect();
        assert_eq!(rows, BTreeSet::from([128, 129, 130]));
        let ckpts: BTreeSet<u64> = (0..32).map(minimd_checkpoints).collect();
        assert_eq!(ckpts, BTreeSet::from([5, 6]));
    }

    #[test]
    fn minimd_intervals_share_the_last_checkpoint_before_the_kill() {
        for seed in 0..8 {
            let w = Workload::build("minimd_redstore", seed).unwrap();
            let filter = w.app().checkpoint_filter(w.checkpoints);
            let kill = w.kills[0].1;
            let last = (0..kill).rev().find(|&i| filter.should_checkpoint(i));
            assert_eq!(last, Some(29), "seed {seed}: {filter:?}");
        }
    }
}
