//! End-to-end job benchmark for the layered-resilience stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs failure-injected Heatdis/MiniMD jobs back to back on the DES
//! backend for `--seconds`, checks every job, and prints one JSON object
//! as the last line of stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The line before it carries the
//! host fingerprint and each host timing's sample count and p90. See
//! `perfbench/README.md` for the workloads and the metric map.

mod host;
mod job;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use resilience::{IterativeApp, Strategy};
use simmpi::{FaultPlan, MpiResult, RankCtx, Universe, UniverseConfig};
use telemetry::TelemetryConfig;

use job::{Expect, JobRun, Metered};
use stats::{median, Summary};
use workload::Workload;

/// Timed jobs per run even when one job outlasts `--seconds`.
const MIN_JOBS: usize = 3;
/// Set-ups timed after each timed job (median of all reported). Spread
/// over the whole run, the set-ups see the same host speed as the jobs
/// rather than a few tens of milliseconds of it.
const SETUPS_PER_JOB: usize = 4;
/// Samples per direct layer call (median reported).
const DIRECT_REPS: usize = 5;
/// Per-rank event-ring capacity of a traced job: well above what any rank
/// of any workload pushes (a traced job that evicts a record fails).
const RING_CAPACITY: usize = 2048;
/// Traced jobs per `--trace 1` run: the median host time prices tracing,
/// and every traced job must report the same counts.
const TRACED_JOBS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Job outcomes tallied for `attempted`/`failed`, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.errors.push(format!("{what}: {e}"));
                false
            }
        }
    }

    fn fail_ratio(&self) -> f64 {
        self.errors.len() as f64 / self.attempted as f64
    }
}

/// Stand the job up once: build the cluster, launch every rank and run
/// `IterativeApp::init_rank` on the active ones — everything a job does
/// before its first iteration. Returns host seconds.
fn setup_once(w: &Workload, app: &dyn IterativeApp) -> f64 {
    let t = Instant::now();
    let cluster = w.cluster(w.strategy.uses_fenix());
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            backend: w.backend(),
            ..UniverseConfig::default()
        },
        Arc::new(FaultPlan::none()),
        |ctx: &mut RankCtx| -> MpiResult<()> {
            let active = ctx.rank() < w.active;
            let comm = ctx.world().split(u64::from(!active), ctx.rank() as u64)?;
            if active {
                std::hint::black_box(app.init_rank(ctx, &comm).digest());
            }
            Ok(())
        },
    );
    let s = t.elapsed().as_secs_f64();
    assert!(report.all_ok(), "set-up launch failed");
    s
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn summary_json(samples: &[f64]) -> String {
    let s = Summary::of(samples);
    format!(
        "{{\"samples\": {}, \"median\": {}, \"p90\": {}}}",
        s.samples,
        json_num(s.median),
        json_num(s.p90)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let fp = host::Fingerprint::probe();
    // Every job runs on one CPU. Under DES only one rank thread runs at a
    // time, so a job is sequential by construction and loses nothing but
    // VeloC's small worker fan-outs; what pinning removes is the wake-up of
    // the next rank thread on the other core at every baton hand-off, which
    // on a shared host made job host time swing by up to 3× between runs.
    // Pinned before anything spawns: rank threads inherit the mask.
    let all_cpus = host::Affinity::current();
    let pinned = all_cpus.as_ref().and_then(host::Affinity::pin_lowest);
    if pinned.is_none() {
        eprintln!("perfbench: could not pin to one CPU; running unpinned");
    }
    let app = w.app();
    let mut tally = Tally::default();

    // Reference runs, once per run and outside the timed jobs. Virtual
    // time is deterministic, so one of each suffices.
    let unprot = job::run(&w, app.as_ref(), Strategy::Unprotected, no_faults(), None);
    let unprot_digest = unprot.result.as_ref().map_or(0, |r| r.digest);
    let plain = Expect {
        digest: unprot_digest,
        kills: 0,
        repairs: 0,
        relaunches: 0,
        iterations: w.iterations(),
        virtual_ns: None,
    };
    tally.record("unprotected", job::check(&unprot, &plain));
    let ff = job::run(&w, app.as_ref(), w.strategy, no_faults(), None);
    tally.record("failure-free", job::check(&ff, &plain));

    // Untimed warm-up: the first failure-injected job fixes the virtual
    // time every later job of this seed must replay.
    let mut want = Expect::injected(&w, unprot_digest);
    let warm = job::run(&w, app.as_ref(), w.strategy, w.plan(), None);
    if tally.record("warm-up", job::check(&warm, &want)) {
        want.virtual_ns = Some(warm.virtual_ns);
    }

    // Timed jobs, one after another from this thread, each followed by
    // timed set-ups.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut jobs: Vec<JobRun> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    while jobs.len() < MIN_JOBS || Instant::now() < deadline {
        let run = job::run(&w, app.as_ref(), w.strategy, w.plan(), None);
        tally.record("job", job::check(&run, &want));
        jobs.push(run);
        setup.extend((0..SETUPS_PER_JOB).map(|_| setup_once(&w, app.as_ref())));
    }
    let host_s: Vec<f64> = jobs.iter().map(|j| j.host_s).collect();
    let cpu_s: Vec<f64> = jobs.iter().map(|j| j.cpu_s).collect();
    let offcpu_s: Vec<f64> = jobs.iter().map(|j| j.host_s - j.cpu_s).collect();
    let job_virtual_ns = warm.virtual_ns;

    let metrics = if args.trace {
        let mut m = per_layer(&w, &app, &mut tally, &want, &host_s, all_cpus.as_ref());
        m.push(("job_offcpu_s", median(&offcpu_s), "s"));
        m.push(("job_fail_ratio", tally.fail_ratio(), "ratio"));
        m
    } else {
        vec![
            ("job_host_s", median(&host_s), "s"),
            ("job_cpu_s", median(&cpu_s), "s"),
            ("job_virtual_s", job_virtual_ns as f64 / 1e9, "s"),
            (
                "recovery_virtual_s",
                stats::recovery_virtual_s(job_virtual_ns, ff.virtual_ns),
                "s",
            ),
            (
                "ckpt_overhead_virtual_s",
                stats::ckpt_overhead_virtual_s(ff.virtual_ns, unprot.virtual_ns),
                "s",
            ),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ]
    };
    let failed = tally.errors.len();

    // Context line: host fingerprint, sample counts, p90s, failures.
    let errors: Vec<String> = tally.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"pinned_cpu\": {}}}, \"workload\": {}, \"seed\": {}, \
         \"job_host_s\": {}, \"job_cpu_s\": {}, \"setup_s\": {}, \"job_fail_ratio\": {}, \
         \"errors\": [{}]}}",
        fp.nproc,
        json_str(&fp.cpu_model),
        pinned.map_or("null".into(), |c| c.to_string()),
        json_str(w.name),
        args.seed,
        summary_json(&host_s),
        summary_json(&cpu_s),
        summary_json(&setup),
        json_num(tally.fail_ratio()),
        errors.join(", ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        tally.attempted,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn no_faults() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::none())
}

/// Traced jobs, a metered job and direct layer calls: every `per_layer`
/// metric but the two whole-job ones.
fn per_layer(
    w: &Workload,
    app: &Arc<dyn IterativeApp>,
    tally: &mut Tally,
    want: &Expect,
    untraced_host_s: &[f64],
    all_cpus: Option<&host::Affinity>,
) -> Metrics {
    let trace = TelemetryConfig {
        ring_capacity: RING_CAPACITY,
        record_mpi_calls: true,
    };
    // The traced jobs run the bare application, as the untraced jobs do,
    // so their host time over the untraced median prices tracing alone.
    let mut traced_host_s = Vec::with_capacity(TRACED_JOBS);
    let mut first: Option<(JobRun, layers::TraceCounts)> = None;
    for _ in 0..TRACED_JOBS {
        let run = job::run(w, app.as_ref(), w.strategy, w.plan(), Some(trace.clone()));
        let counts = run
            .telemetry
            .as_ref()
            .map(|t| layers::count(&t.snapshot()))
            .unwrap_or_default();
        // `want` carries the untraced jobs' digest and virtual time: the
        // trace must observe the very job they timed, all of it, and the
        // same way every time.
        let verdict = job::check(&run, want).and_then(|()| {
            if counts.evicted != 0 {
                return Err(format!("{} trace records evicted", counts.evicted));
            }
            match &first {
                Some((_, c)) if *c != counts => {
                    Err("trace counts differ between traced jobs".into())
                }
                _ => Ok(()),
            }
        });
        tally.record("traced", verdict);
        traced_host_s.push(run.host_s);
        first.get_or_insert((run, counts));
    }
    let (first, counts) = first.expect("at least one traced job");

    // Step counts and step CPU time come from one more untraced job under
    // the step wrapper, which reads two CPU clocks per step and rank.
    let metered = Metered {
        inner: Arc::clone(app),
        counters: Arc::default(),
    };
    let run = job::run(w, &metered, w.strategy, w.plan(), None);
    tally.record("metered", job::check(&run, want));
    let steps = metered.counters.steps.load(Ordering::Relaxed);
    let step_cpu_ns = metered.counters.cpu_ns.load(Ordering::Relaxed);

    let rec = first.result.as_ref().ok();
    let iterations = rec.map_or(0, |r| r.iterations);

    let launch_s = layers::launch_calls(w, DIRECT_REPS);

    // Direct calls into VeloC and redstore run on every core, so a layer's
    // own parallel speed-up shows here even though the jobs are pinned.
    if let Some(all) = all_cpus {
        all.apply();
    }
    let payload = layers::probe_payload(w, app.as_ref());
    let veloc = if w.strategy == Strategy::FenixRedstore {
        layers::VelocCalls::default()
    } else {
        layers::veloc_calls(&payload, DIRECT_REPS)
    };
    let (encode_s, reconstruct_s) = if w.strategy == Strategy::FenixRedstore {
        layers::redstore_calls(layers::redstore_mode(w), payload.packed_bytes, DIRECT_REPS)
    } else {
        (0.0, 0.0)
    };

    vec![
        ("apps.step_cpu_s", step_cpu_ns as f64 / 1e9, "s"),
        ("apps.steps", steps as f64, "count"),
        (
            "apps.useful_step_ratio",
            stats::useful_step_ratio(w.active, iterations, steps),
            "ratio",
        ),
        ("veloc.checkpoint_call_s", veloc.checkpoint_s, "s"),
        ("veloc.restart_call_s", veloc.restart_s, "s"),
        ("veloc.restart_read_s", veloc.read_s, "s"),
        ("veloc.restart_verify_s", veloc.verify_s, "s"),
        ("veloc.restart_apply_s", veloc.apply_s, "s"),
        (
            "veloc.restart_share",
            stats::restart_share(counts.restarts, veloc.restart_s, median(untraced_host_s)),
            "ratio",
        ),
        ("veloc.checkpoints", counts.checkpoints as f64, "count"),
        ("veloc.restarts", counts.restarts as f64, "count"),
        ("veloc.local_bytes", counts.local_bytes as f64, "B"),
        ("veloc.flush_bytes", counts.flush_bytes as f64, "B"),
        ("kokkos-resilience.regions", counts.regions as f64, "count"),
        (
            "kokkos-resilience.capture_bytes",
            counts.capture_bytes as f64,
            "B",
        ),
        (
            "kokkos-resilience.restores",
            counts.restores as f64,
            "count",
        ),
        ("redstore.encode_s", encode_s, "s"),
        ("redstore.reconstruct_s", reconstruct_s, "s"),
        ("simmpi.launch_s", launch_s, "s"),
        ("simmpi.mpi_calls", counts.mpi_calls as f64, "count"),
        ("simmpi.ulfm_ops", counts.ulfm_ops as f64, "count"),
        ("fenix.repairs", counts.repairs as f64, "count"),
        (
            "fenix.repair_virtual_s",
            counts.repair_virtual_ns as f64 / 1e9,
            "s",
        ),
        (
            "resilience.relaunches",
            rec.map_or(0, |r| r.relaunches) as f64,
            "count",
        ),
        ("cluster.pfs_bytes", first.pfs_bytes as f64, "B"),
        ("cluster.scratch_bytes", first.scratch_bytes as f64, "B"),
        (
            "telemetry.overhead_ratio",
            median(&traced_host_s) / median(untraced_host_s) - 1.0,
            "ratio",
        ),
        ("telemetry.evicted", counts.evicted as f64, "count"),
    ]
}
