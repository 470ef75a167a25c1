//! One job: a fresh cluster and fault plan, one `try_run_experiment` on
//! the DES backend, timed in host, CPU and virtual time, then checked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kokkos::capture::Checkpointable;
use kokkos_resilience::CheckpointFilter;
use resilience::{
    try_run_experiment, Bookkeeper, ExperimentError, IterativeApp, RankApp, RunMode, RunRecord,
    Strategy,
};
use simmpi::{Comm, FaultPlan, MpiResult, RankCtx};
use telemetry::{Telemetry, TelemetryConfig, TimeSource};

use crate::host;
use crate::workload::Workload;

/// Everything measured about one job.
pub struct JobRun {
    pub result: Result<RunRecord, ExperimentError>,
    /// Kills of the plan that fired during this job.
    pub fired: usize,
    pub host_s: f64,
    pub cpu_s: f64,
    /// DES virtual time from launch to completion, relaunches included.
    pub virtual_ns: u64,
    /// `stored_bytes()` of the parallel filesystem after the job.
    pub pfs_bytes: u64,
    /// `stored_bytes()` summed over every node's scratch after the job.
    pub scratch_bytes: u64,
    /// The traced job's hub, when tracing was requested.
    pub telemetry: Option<Telemetry>,
}

/// Run one job of `w` under `strategy` with `plan`. `trace` turns on a
/// telemetry hub stamping events from the cluster's virtual clock.
pub fn run(
    w: &Workload,
    app: &dyn IterativeApp,
    strategy: Strategy,
    plan: Arc<FaultPlan>,
    trace: Option<TelemetryConfig>,
) -> JobRun {
    let cluster = w.cluster(strategy.uses_fenix());
    let telemetry = trace.map(|cfg| {
        let clock = Arc::clone(cluster.clock());
        Telemetry::with_time_source(cfg, TimeSource::External(Arc::new(move || clock.now_ns())))
    });
    let cfg = w.config(strategy, telemetry.clone());
    // A kill fires at most once per plan: count only this job's firings,
    // so a plan that already fired in an earlier job shows up as 0.
    let fired0 = plan.fired_count();
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    let result = try_run_experiment(&cluster, app, &cfg, Arc::clone(&plan));
    let host_s = t0.elapsed().as_secs_f64();
    let cpu_s = (host::process_cpu() - cpu0).as_secs_f64();
    let scratch = cluster.scratch();
    JobRun {
        virtual_ns: cluster.clock().now_ns(),
        fired: plan.fired_count() - fired0,
        host_s,
        cpu_s,
        pfs_bytes: cluster.pfs().stored_bytes() as u64,
        scratch_bytes: (0..scratch.node_count())
            .map(|n| scratch.stored_bytes(n) as u64)
            .sum(),
        result,
        telemetry,
    }
}

/// What a correct run of a job must show.
#[derive(Clone, Debug)]
pub struct Expect {
    /// The failure-free job's digest.
    pub digest: u64,
    pub kills: usize,
    pub repairs: u64,
    pub relaunches: usize,
    pub iterations: u64,
    /// Virtual time the job must replay exactly (same seed, same
    /// schedule), once a first run has fixed it.
    pub virtual_ns: Option<u64>,
}

impl Expect {
    /// Expectations for the failure-injected job of `w`.
    pub fn injected(w: &Workload, digest: u64) -> Expect {
        Expect {
            digest,
            kills: w.kills.len(),
            repairs: w.expect_repairs,
            relaunches: w.expect_relaunches,
            iterations: w.iterations(),
            virtual_ns: None,
        }
    }
}

/// A job passes only if it completed, matched the failure-free digest,
/// fired every planned kill, recovered exactly as often as planned and
/// reached the last iteration — and, once fixed, replayed the same virtual
/// time. Returns the first violation found.
pub fn check(run: &JobRun, want: &Expect) -> Result<(), String> {
    let rec = run
        .result
        .as_ref()
        .map_err(|e| format!("job failed: {e}"))?;
    if run.fired != want.kills {
        return Err(format!(
            "{} of {} planned kills fired",
            run.fired, want.kills
        ));
    }
    if rec.digest != want.digest {
        return Err(format!(
            "digest {:#x} != failure-free {:#x}",
            rec.digest, want.digest
        ));
    }
    if rec.repairs != want.repairs {
        return Err(format!(
            "{} repairs, expected {}",
            rec.repairs, want.repairs
        ));
    }
    if rec.relaunches != want.relaunches {
        return Err(format!(
            "{} relaunches, expected {}",
            rec.relaunches, want.relaunches
        ));
    }
    if rec.iterations != want.iterations {
        return Err(format!(
            "reached iteration {}, expected {}",
            rec.iterations, want.iterations
        ));
    }
    if let Some(ns) = want.virtual_ns.filter(|&ns| ns != run.virtual_ns) {
        return Err(format!(
            "virtual time {} ns did not replay {ns} ns",
            run.virtual_ns
        ));
    }
    Ok(())
}

/// Step counters shared by every rank of a [`Metered`] app.
#[derive(Default)]
pub struct StepCounters {
    /// Per-thread CPU nanoseconds spent inside `RankApp::step`, summed
    /// over ranks.
    pub cpu_ns: AtomicU64,
    /// Steps executed, recompute included.
    pub steps: AtomicU64,
}

/// Wraps an application so every `RankApp::step` is counted and its
/// per-thread CPU time booked. Under DES a rank thread is parked while
/// another rank holds the baton, so thread CPU time is this rank's own
/// work only — unlike host time, which includes other ranks' turns.
pub struct Metered {
    pub inner: Arc<dyn IterativeApp>,
    pub counters: Arc<StepCounters>,
}

impl IterativeApp for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn mode(&self) -> RunMode {
        self.inner.mode()
    }

    fn init_rank(&self, ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp> {
        Box::new(MeteredRank {
            inner: self.inner.init_rank(ctx, comm),
            counters: Arc::clone(&self.counters),
        })
    }

    fn alias_labels(&self) -> Vec<String> {
        self.inner.alias_labels()
    }

    fn checkpoint_filter(&self, checkpoints: u64) -> CheckpointFilter {
        self.inner.checkpoint_filter(checkpoints)
    }
}

struct MeteredRank {
    inner: Box<dyn RankApp>,
    counters: Arc<StepCounters>,
}

impl RankApp for MeteredRank {
    fn step(&mut self, comm: &Comm, iteration: u64, bk: &Bookkeeper) -> MpiResult<()> {
        let t0 = host::thread_cpu();
        let out = self.inner.step(comm, iteration, bk);
        let spent = (host::thread_cpu() - t0).as_nanos() as u64;
        self.counters.cpu_ns.fetch_add(spent, Ordering::Relaxed);
        self.counters.steps.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>> {
        self.inner.checkpoint_views()
    }

    fn converged(&mut self, comm: &Comm, bk: &Bookkeeper) -> MpiResult<bool> {
        self.inner.converged(comm, bk)
    }

    fn post_restore(&mut self, comm: &Comm, bk: &Bookkeeper) -> MpiResult<()> {
        self.inner.post_restore(comm, bk)
    }

    fn digest(&self) -> u64 {
        self.inner.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppShape, Workload};

    /// A job small enough for a unit test: 4 ranks + 1 spare, one kill.
    fn tiny() -> Workload {
        let mut w = Workload::build("heatdis_veloc", 1).unwrap();
        w.app = AppShape::Heatdis {
            rows: 16,
            cols: 64,
            iterations: 12,
        };
        w.active = 4;
        w.checkpoints = 3;
        w.kills = vec![(1, 6)];
        w
    }

    fn reference(w: &Workload, app: &dyn IterativeApp) -> u64 {
        let ff = run(w, app, w.strategy, Arc::new(FaultPlan::none()), None);
        ff.result.expect("failure-free run").digest
    }

    #[test]
    fn injected_job_passes_its_check() {
        let w = tiny();
        let app = w.app();
        let want = Expect::injected(&w, reference(&w, app.as_ref()));
        let job = run(&w, app.as_ref(), w.strategy, w.plan(), None);
        assert_eq!(check(&job, &want), Ok(()));
        assert!(job.virtual_ns > 0 && job.host_s > 0.0);
    }

    #[test]
    fn a_kill_that_never_fired_fails_the_job() {
        let w = tiny();
        let app = w.app();
        let want = Expect::injected(&w, reference(&w, app.as_ref()));
        // Reusing one plan: its kill fired in the first job, so the second
        // job runs failure-free — same digest, but it proves nothing.
        let plan = w.plan();
        let first = run(&w, app.as_ref(), w.strategy, Arc::clone(&plan), None);
        assert_eq!(check(&first, &want), Ok(()));
        let second = run(&w, app.as_ref(), w.strategy, plan, None);
        let rec = second.result.as_ref().expect("completes");
        assert_eq!(rec.repairs, 0, "nothing was repaired");
        assert_eq!(rec.digest, want.digest);
        let err = check(&second, &want).expect_err("must count as failed");
        assert!(err.contains("kills fired"), "{err}");
    }

    #[test]
    fn wrong_recovery_counts_fail_the_job() {
        let w = tiny();
        let app = w.app();
        let digest = reference(&w, app.as_ref());
        let job = run(&w, app.as_ref(), w.strategy, w.plan(), None);
        let mut want = Expect::injected(&w, digest);
        want.repairs += 1;
        assert!(check(&job, &want).unwrap_err().contains("repairs"));
        let mut want = Expect::injected(&w, digest ^ 1);
        want.iterations = w.iterations();
        assert!(check(&job, &want).unwrap_err().contains("digest"));
    }

    #[test]
    fn metered_app_counts_every_step() {
        let w = tiny();
        let metered = Metered {
            inner: w.app(),
            counters: Arc::default(),
        };
        let job = run(&w, &metered, w.strategy, Arc::new(FaultPlan::none()), None);
        let rec = job.result.expect("completes");
        let steps = metered.counters.steps.load(Ordering::Relaxed);
        assert_eq!(steps, w.active as u64 * rec.iterations);
        assert!(metered.counters.cpu_ns.load(Ordering::Relaxed) > 0);
    }
}
