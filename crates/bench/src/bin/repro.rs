//! Regenerates every table and figure of the paper's evaluation and
//! prints them as text tables (the data behind EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! repro                         # reduced scale (default; ~0.7 s)
//! repro quick                   # smoke scale (seconds)
//! repro paper                   # the paper's full population
//!                               # (1 197.2 s, 1 716 MB peak RSS)
//! repro paper --backend surrogate  # the full population on the
//!                               # calibrated table (~0.4 s)
//! repro <scale> --timings       # also print per-figure wall-clock to stderr
//! repro <scale> --backend <which>  # execution backend: analog (default)
//!                               # | surrogate (calibrated fast model)
//!                               # | hybrid (adaptive table/analog mix)
//! repro <scale> --faults <name> # arm a fault-injection preset
//!                               # (quick | dropout | chaos)
//! repro <scale> --metrics       # telemetry summary to stderr after the run
//! repro <scale> --metrics-out <path>  # telemetry + scoreboard JSON to <path>
//! repro <scale> --checkpoint-dir <path>  # journal sweeps for kill-and-resume
//! repro <scale> --checkpoint-dir <path> --resume  # continue a killed run
//! repro <scale> --shards <N>    # split sweeps across N worker processes,
//!                               # merge, and replay (byte-identical output)
//! ```
//!
//! The `reduced` and `paper --backend surrogate` times are
//! `crates/ledger` campaign medians (`reduced-analog`,
//! `paper-surrogate`) on a 2-core x86-64 host; the `paper` time and
//! peak RSS come from one unscaled run on the same host.
//!
//! `--timings` and the telemetry flags write to stderr (or to a file),
//! so the figure tables on stdout stay byte-identical with and without
//! them — observability must never change the scientific output.
//! `--faults` deliberately *does* change it (that is the point); the
//! run footer then reports fleet coverage and the quorum-adjusted
//! scoreboard threshold. `--help` (or `-h`) prints the usage to stdout
//! and exits 0; malformed invocations print a diagnostic plus usage to
//! stderr and exit 2 (see [`simra_bench::cli`]).

use std::time::Instant;

use simra_bench::cli::{self, CliOptions};
use simra_bench::metrics::MetricsDoc;
use simra_casestudy::{fig16_microbenchmarks_on, fig17_coldboot};
use simra_characterize::{fig15_spice, ExperimentConfig, FigureSet, Session};
use simra_dram::VendorProfile;
use simra_faults::FaultPlan;
use simra_telemetry::Recorder;

/// Runs one named stage, reporting its wall-clock to stderr when enabled.
fn timed<T>(timings: bool, label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if timings {
        eprintln!("[timing] {label}: {:.3} s", start.elapsed().as_secs_f64());
    }
    out
}

fn main() {
    let opts: CliOptions = match cli::parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}");
            eprintln!("{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if opts.help {
        println!("{}", cli::USAGE);
        return;
    }
    let timings = opts.timings;
    // The campaign's one recorder, handed to the session below. Shard
    // workers always record: the coordinator merges the per-worker
    // snapshots whether or not the final run wants metrics.
    let recorder = Recorder::new();
    if opts.wants_telemetry() || opts.shard_worker.is_some() {
        recorder.enable();
    }
    let scale = opts.scale();
    let mut config = match scale {
        "quick" => ExperimentConfig::quick(),
        "paper" => ExperimentConfig::paper_scale(),
        _ => ExperimentConfig::reduced(),
    };
    config.backend = opts.backend;
    if config.backend != simra_exec::BackendChoice::Analog {
        // stderr only: default-backend stdout stays byte-identical.
        eprintln!("# backend: {}", config.backend);
    }
    if let Some(name) = opts.faults_preset.as_deref() {
        match FaultPlan::preset(name, config.modules.len()) {
            Some(plan) => {
                eprintln!("# faults: {name} — {}", plan.describe());
                config.faults = Some(plan);
            }
            None => {
                eprintln!("unknown fault preset: {name} (expected quick | dropout | chaos)");
                std::process::exit(2);
            }
        }
    }
    // The session owns everything this run mutates — backends,
    // telemetry handle, checkpoint slot, fleet coverage — so it is
    // built once the config is final.
    let session = Session::recorded_by(config.clone(), recorder);
    // A coordinator without --checkpoint-dir shards into a temp root,
    // removed after the run; `Some` only in that case.
    let mut temp_root = None;
    if let Some((index, count)) = opts.shard_worker {
        // Worker mode: journal only this shard's slots. The session
        // manifest pins the shard spec alongside scale/seed/backend, so
        // resuming under a different spec is a typed refusal (exit 2).
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .expect("the CLI rejects --shard-worker without --checkpoint-dir");
        let spec = simra_exec::ShardSpec { index, count };
        if let Err(err) =
            session.arm_sharded_checkpoints(std::path::Path::new(dir), opts.resume, spec)
        {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
        eprintln!(
            "# shard worker {spec}: journaling into {dir} ({})",
            if opts.resume {
                "resuming"
            } else {
                "fresh session"
            }
        );
    } else if let Some(shards) = opts.shards {
        // Coordinator mode: run the workers to completion, merge their
        // journals, then arm the merged directory and fall through to
        // the ordinary campaign below — every sweep replays from the
        // merged journal, so stdout is byte-identical to an unsharded
        // run.
        let root = match opts.checkpoint_dir.as_deref() {
            Some(dir) => std::path::PathBuf::from(dir),
            None => {
                let dir = std::env::temp_dir().join(format!("simra-shards-{}", std::process::id()));
                temp_root = Some(dir.clone());
                dir
            }
        };
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(err) => {
                eprintln!("error: cannot locate the repro binary to re-invoke: {err}");
                std::process::exit(2);
            }
        };
        let mut base_args = vec![opts.scale().to_string()];
        if opts.backend != simra_exec::BackendChoice::Analog {
            base_args.push("--backend".into());
            base_args.push(opts.backend.to_string());
        }
        if let Some(preset) = opts.faults_preset.as_deref() {
            base_args.push("--faults".into());
            base_args.push(preset.to_string());
        }
        let coordinator =
            simra_characterize::ShardCoordinator::new(exe, base_args, root.clone(), shards);
        // Announced only once the root passes its check, and before the
        // first worker spawns: a refused run starts no worker.
        let announce = || eprintln!("# shards: {shards} workers under {}", root.display());
        let report = match coordinator.execute(&config, announce) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "# shards: merged {} sweep journal(s) ({} records) into {}",
            report.sweeps,
            report.records,
            coordinator.merged_dir().display()
        );
        if let Some(path) = &report.telemetry {
            eprintln!("# shards: worker telemetry merged into {}", path.display());
        }
        let merged = coordinator.merged_dir();
        // Rerunning the same coordinator command resumes on its own.
        let resume = merged.join("session.json").exists();
        if let Err(err) = session.arm_checkpoints(&merged, resume) {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
        eprintln!(
            "# checkpoints: {} (replaying merged journals)",
            merged.display()
        );
    } else if let Some(dir) = opts.checkpoint_dir.as_deref() {
        // Armed after the config is final: the session manifest pins
        // scale, seed, backend, and fault plan, and `--resume` refuses
        // to continue under different arguments.
        if let Err(err) = session.arm_checkpoints(std::path::Path::new(dir), opts.resume) {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
        eprintln!(
            "# checkpoints: {} ({})",
            dir,
            if opts.resume {
                "resuming"
            } else {
                "fresh session"
            }
        );
    }
    eprintln!("# scale: {scale} — {}", config.describe_scale());
    let total = Instant::now();

    // Times one figure runner and prints its table to stdout.
    macro_rules! show {
        ($label:expr, $f:expr) => {
            println!("{}", timed(timings, $label, $f))
        };
    }

    // Figs. 3–12, each computed once: printed here, read again by the
    // observation scoreboard below.
    let figures = FigureSet::compute(&session, |label, run| {
        let table = timed(timings, label, run);
        println!("{table}");
        table
    });
    if opts.shard_worker.is_some() {
        // The figure sweeps are the only journaled stages, so a worker's
        // job ends here: the coordinator computes everything below from
        // the merged journals. The worker's snapshot rides with its
        // journal so the coordinator can merge all workers' telemetry,
        // and marks the shard done.
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .expect("the CLI rejects --shard-worker without --checkpoint-dir");
        let snapshot = session.recorder().snapshot();
        if let Err(err) =
            simra_characterize::shard::write_worker_telemetry(std::path::Path::new(dir), &snapshot)
        {
            eprintln!("failed to write the worker telemetry: {err}");
            std::process::exit(1);
        }
        return;
    }
    let (fig15a, fig15b) = timed(timings, "fig15", || fig15_spice(&session));
    println!("{fig15a}");
    println!("{fig15b}");
    let profiles = [VendorProfile::mfr_h_m_die(), VendorProfile::mfr_m_e_die()];
    let groups = if scale == "paper" { 40 } else { 8 };
    show!("fig16", || fig16_microbenchmarks_on(
        &session, &profiles, groups, 11
    ));
    show!("fig17", fig17_coldboot);

    show!("per_die_breakdown", || {
        simra_characterize::per_die_breakdown(&session)
    });

    println!("=== Observation scoreboard (18 observations, §4–§6) ===");
    let reports = timed(timings, "observations", || {
        simra_characterize::check_observations(&figures, session.recorder())
    });
    let held = reports.iter().filter(|r| r.holds).count();
    let missing = reports.iter().filter(|r| r.data_missing).count();
    for r in &reports {
        println!("{r}");
    }
    println!("--- {held}/18 observations reproduced at this scale ---");
    // Only printed when something actually went missing, so a healthy
    // run's stdout stays byte-identical to older builds.
    if missing > 0 {
        println!("--- {missing}/18 observations could not be measured (missing series) ---");
    }

    println!("\n=== Takeaway scoreboard (7 lessons) ===");
    let takeaways = simra_characterize::derive_takeaways(&reports);
    let t_held = takeaways.iter().filter(|t| t.holds).count();
    for t in &takeaways {
        println!("{t}");
    }
    println!("--- {t_held}/7 takeaways reproduced at this scale ---");

    // Coverage accounting only prints under fault injection, so a
    // fault-free run's stdout stays byte-identical to older builds.
    if opts.faults_preset.is_some() {
        let (coverage, failures) = session.take_coverage();
        println!("\n=== Fleet coverage under fault injection ===");
        println!("{}", coverage.describe());
        for line in &failures {
            println!("{line}");
        }
        let quorum = simra_characterize::scoreboard_quorum(18, coverage.completed, coverage.tasks);
        println!("--- quorum-adjusted threshold: {quorum}/18 ---");
    }

    if opts.wants_telemetry() {
        let snapshot = session.recorder().snapshot();
        if let Some(path) = opts.metrics_out.as_deref() {
            let doc = MetricsDoc {
                scale,
                faults_preset: opts.faults_preset.as_deref(),
                telemetry: &snapshot,
                observations: &reports,
                takeaways: &takeaways,
            };
            if let Err(err) = std::fs::write(path, doc.to_json()) {
                eprintln!("failed to write metrics to {path}: {err}");
                std::process::exit(1);
            }
            eprintln!("# metrics written to {path}");
        }
        if opts.metrics {
            eprint!("{}", snapshot.summary());
        }
    }

    if let Some(root) = temp_root {
        let _ = std::fs::remove_dir_all(&root);
    }

    if timings {
        eprintln!("[timing] total: {:.3} s", total.elapsed().as_secs_f64());
    }
}
