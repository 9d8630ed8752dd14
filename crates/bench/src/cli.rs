//! Argument parsing for the `repro` binary.
//!
//! Extracted from `main` so the accepted grammar is testable and so
//! malformed invocations fail loudly: any unrecognized `-`/`--` token,
//! a flag missing its value, a duplicate scale, or an unknown scale
//! name is an error, never a silently reinterpreted argument. (The old
//! inline loop treated single-dash typos like `-faults` as the scale
//! positional and ran the wrong configuration without a word.) `--help`
//! and `-h` are not errors: they ask for [`USAGE`] on stdout.

/// Usage text printed alongside every parse error, and on stdout for
/// `--help` / `-h`.
pub const USAGE: &str = "\
usage: repro [<scale>] [--backend <which>] [--timings] [--faults <preset>] [--metrics] [--metrics-out <path>] [--shards <N>] [--checkpoint-dir <path> [--resume]]
  <scale>               quick | reduced | paper (default: reduced)
  -h, --help            print this usage and exit
  --backend <which>     execution backend: analog (default, the reference
                        physics path) | surrogate (calibrated fast model) |
                        hybrid (table answers where certain, analog
                        escalation where ambiguous)
  --timings             print per-figure wall-clock to stderr
  --faults <preset>     arm a fault-injection preset (quick | dropout | chaos)
  --metrics             print a telemetry summary to stderr after the run
  --metrics-out <path>  write versioned telemetry + scoreboard JSON to <path>
  --shards <N>          split every sweep grid across N worker processes,
                        merge their journals, and replay — output is
                        byte-identical to an unsharded run; killed workers
                        resume automatically when the command is rerun
  --checkpoint-dir <path>
                        journal every sweep into <path>; a killed run can be
                        resumed from there with byte-identical results (with
                        --shards: the shard root; defaults to a temp dir)
  --resume              continue the checkpoint session in --checkpoint-dir
                        (requires an existing session with the same arguments)
  --shard-worker <i>/<N>
                        internal: run the figure sweeps as shard worker i of
                        N, journaling only its slots into --checkpoint-dir,
                        then exit (spawned by --shards)";

/// Parsed `repro` invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// `--help` / `-h`: print [`USAGE`] to stdout and exit 0. Parsing
    /// stops at the flag, so the rest of the line is not checked.
    pub help: bool,
    /// Positional scale argument, if given (`quick` | `reduced` | `paper`).
    pub scale: Option<String>,
    /// `--timings`: per-figure wall-clock on stderr.
    pub timings: bool,
    /// `--metrics`: telemetry summary on stderr after the run.
    pub metrics: bool,
    /// `--metrics-out <path>`: write the metrics JSON document here.
    pub metrics_out: Option<String>,
    /// `--faults <preset>`: arm a fault-injection preset.
    pub faults_preset: Option<String>,
    /// `--backend <which>`: execution backend for every trial.
    pub backend: simra_exec::BackendChoice,
    /// `--checkpoint-dir <path>`: journal sweeps here for kill-and-resume.
    pub checkpoint_dir: Option<String>,
    /// `--resume`: continue the session in `--checkpoint-dir`.
    pub resume: bool,
    /// `--shards <N>`: run as a coordinator over N worker processes.
    pub shards: Option<u32>,
    /// `--shard-worker <i>/<N>` (internal): run the figure sweeps as
    /// shard worker `i` of `N`, journaling only the slots it owns into
    /// `--checkpoint-dir`, then exit.
    pub shard_worker: Option<(u32, u32)>,
}

impl CliOptions {
    /// The effective scale (`reduced` unless overridden).
    pub fn scale(&self) -> &str {
        self.scale.as_deref().unwrap_or("reduced")
    }

    /// Whether any telemetry output was requested; the campaign's
    /// recorder is enabled only in that case so plain runs stay
    /// zero-cost.
    pub fn wants_telemetry(&self) -> bool {
        self.metrics || self.metrics_out.is_some()
    }
}

/// A rejected invocation. `Display` yields the one-line diagnostic;
/// callers print it together with [`USAGE`] and exit non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A `-`/`--` token that is not part of the grammar.
    UnknownFlag(String),
    /// A flag that takes a value reached the end of the argument list.
    MissingValue(&'static str),
    /// Two positional arguments.
    DuplicateScale(String, String),
    /// A positional that is not one of the known scales.
    UnknownScale(String),
    /// `--backend` named something other than
    /// `analog` | `surrogate` | `hybrid`.
    UnknownBackend(String),
    /// `--resume` without the `--checkpoint-dir` it would resume into.
    ResumeWithoutDir,
    /// `--shards` with a value that is not a positive integer.
    InvalidShards(String),
    /// `--shard-worker` with a value that is not `<i>/<N>` with `i < N`.
    InvalidShardWorker(String),
    /// `--shards` and `--shard-worker` in the same invocation.
    ShardConflict,
    /// `--shard-worker` without the `--checkpoint-dir` it journals into.
    ShardWorkerWithoutDir,
    /// `--shard-worker` with `--metrics` or `--metrics-out`: a worker
    /// exits after its figure sweeps, before any scoreboard exists.
    ShardWorkerWithMetrics,
    /// `--shards` with `--resume`: a rerun coordinator resumes on its
    /// own, so the explicit flag would only mislead.
    ShardsWithResume,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::DuplicateScale(first, second) => {
                write!(f, "scale given twice: {first:?} then {second:?}")
            }
            CliError::UnknownScale(scale) => {
                write!(
                    f,
                    "unknown scale: {scale:?} (expected quick | reduced | paper)"
                )
            }
            CliError::UnknownBackend(backend) => {
                write!(
                    f,
                    "unknown backend: {backend:?} (expected analog | surrogate | hybrid)"
                )
            }
            CliError::ResumeWithoutDir => {
                write!(f, "--resume requires --checkpoint-dir")
            }
            CliError::InvalidShards(value) => {
                write!(f, "--shards expects a positive integer, got {value:?}")
            }
            CliError::InvalidShardWorker(value) => {
                write!(
                    f,
                    "--shard-worker expects <i>/<N> with i < N, got {value:?}"
                )
            }
            CliError::ShardConflict => {
                write!(f, "--shards and --shard-worker cannot be combined")
            }
            CliError::ShardWorkerWithoutDir => {
                write!(f, "--shard-worker requires --checkpoint-dir")
            }
            CliError::ShardWorkerWithMetrics => {
                write!(
                    f,
                    "--shard-worker writes only <dir>/telemetry.json; pass --metrics and --metrics-out to the coordinator"
                )
            }
            CliError::ShardsWithResume => {
                write!(
                    f,
                    "--shards resumes killed workers automatically; drop --resume"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parses the argument list (without the program name).
pub fn parse_args<I, S>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut opts = CliOptions::default();
    let mut iter = args.into_iter().map(Into::into);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                return Ok(CliOptions {
                    help: true,
                    ..CliOptions::default()
                })
            }
            "--timings" => opts.timings = true,
            "--metrics" => opts.metrics = true,
            "--metrics-out" => match iter.next() {
                Some(path) => opts.metrics_out = Some(path),
                None => return Err(CliError::MissingValue("--metrics-out")),
            },
            "--faults" => match iter.next() {
                Some(name) => opts.faults_preset = Some(name),
                None => return Err(CliError::MissingValue("--faults")),
            },
            "--backend" => match iter.next() {
                Some(name) => match name.parse() {
                    Ok(backend) => opts.backend = backend,
                    Err(_) => return Err(CliError::UnknownBackend(name)),
                },
                None => return Err(CliError::MissingValue("--backend")),
            },
            "--checkpoint-dir" => match iter.next() {
                Some(path) => opts.checkpoint_dir = Some(path),
                None => return Err(CliError::MissingValue("--checkpoint-dir")),
            },
            "--resume" => opts.resume = true,
            "--shards" => match iter.next() {
                Some(value) => match value.parse::<u32>() {
                    Ok(n) if n > 0 => opts.shards = Some(n),
                    _ => return Err(CliError::InvalidShards(value)),
                },
                None => return Err(CliError::MissingValue("--shards")),
            },
            "--shard-worker" => match iter.next() {
                Some(value) => match parse_shard_worker(&value) {
                    Some(spec) => opts.shard_worker = Some(spec),
                    None => return Err(CliError::InvalidShardWorker(value)),
                },
                None => return Err(CliError::MissingValue("--shard-worker")),
            },
            other if other.starts_with('-') => {
                return Err(CliError::UnknownFlag(other.to_string()));
            }
            "quick" | "reduced" | "paper" => match &opts.scale {
                Some(first) => {
                    return Err(CliError::DuplicateScale(first.clone(), arg));
                }
                None => opts.scale = Some(arg),
            },
            other => return Err(CliError::UnknownScale(other.to_string())),
        }
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err(CliError::ResumeWithoutDir);
    }
    if opts.shards.is_some() && opts.shard_worker.is_some() {
        return Err(CliError::ShardConflict);
    }
    if opts.shard_worker.is_some() && opts.checkpoint_dir.is_none() {
        return Err(CliError::ShardWorkerWithoutDir);
    }
    if opts.shard_worker.is_some() && opts.wants_telemetry() {
        return Err(CliError::ShardWorkerWithMetrics);
    }
    if opts.shards.is_some() && opts.resume {
        return Err(CliError::ShardsWithResume);
    }
    Ok(opts)
}

/// Parses a `--shard-worker` value: `<i>/<N>` with `i < N`, `N > 0`.
fn parse_shard_worker(value: &str) -> Option<(u32, u32)> {
    let (index, count) = value.split_once('/')?;
    let index = index.parse::<u32>().ok()?;
    let count = count.parse::<u32>().ok()?;
    (count > 0 && index < count).then_some((index, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        parse_args(args.iter().copied())
    }

    #[test]
    fn empty_invocation_defaults_to_reduced() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.scale(), "reduced");
        assert!(!opts.timings && !opts.metrics);
        assert!(opts.metrics_out.is_none() && opts.faults_preset.is_none());
        assert!(!opts.wants_telemetry());
    }

    #[test]
    fn full_grammar_round_trips() {
        let opts = parse(&[
            "quick",
            "--timings",
            "--faults",
            "chaos",
            "--metrics",
            "--metrics-out",
            "m.json",
        ])
        .unwrap();
        assert_eq!(opts.scale(), "quick");
        assert!(opts.timings && opts.metrics);
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(opts.faults_preset.as_deref(), Some("chaos"));
        assert!(opts.wants_telemetry());
    }

    #[test]
    fn flag_order_does_not_matter() {
        let opts = parse(&["--timings", "paper"]).unwrap();
        assert_eq!(opts.scale(), "paper");
        assert!(opts.timings);
    }

    #[test]
    fn help_flags_ask_for_the_usage() {
        let help = CliOptions {
            help: true,
            ..CliOptions::default()
        };
        for args in [&["--help"][..], &["-h"], &["quick", "--help"]] {
            assert_eq!(parse(args), Ok(help.clone()), "{args:?}");
        }
        assert!(!parse(&["quick"]).unwrap().help);
    }

    #[test]
    fn unknown_double_dash_flag_is_rejected() {
        // `--timing` (a plausible typo of `--timings`) must not pass, and
        // only `--help` and `-h` leave the error path: a flag that merely
        // looks like a help request does not.
        for flag in ["--timing", "--bogus", "--helpme", "-help", "-H"] {
            assert_eq!(
                parse(&[flag]),
                Err(CliError::UnknownFlag(flag.into())),
                "{flag}"
            );
        }
        // The hybrid's decision rule is fixed: its former tuning flags
        // are refused like any other unknown flag.
        for (flag, value) in [("--hybrid-epsilon", "0.02"), ("--hybrid-budget", "1:8")] {
            assert_eq!(
                parse(&["quick", "--backend", "hybrid", flag, value]),
                Err(CliError::UnknownFlag(flag.into())),
                "{flag}"
            );
        }
    }

    #[test]
    fn single_dash_typo_no_longer_becomes_the_scale() {
        // Regression: `-faults` used to be accepted as the positional
        // scale argument and the run silently fell back to `reduced`.
        assert_eq!(
            parse(&["-faults", "chaos"]),
            Err(CliError::UnknownFlag("-faults".into()))
        );
    }

    #[test]
    fn unknown_scale_is_rejected() {
        assert_eq!(parse(&["fast"]), Err(CliError::UnknownScale("fast".into())));
    }

    #[test]
    fn duplicate_scale_is_rejected() {
        assert_eq!(
            parse(&["quick", "paper"]),
            Err(CliError::DuplicateScale("quick".into(), "paper".into()))
        );
    }

    #[test]
    fn value_flags_require_a_value() {
        assert_eq!(
            parse(&["--faults"]),
            Err(CliError::MissingValue("--faults"))
        );
        assert_eq!(
            parse(&["quick", "--metrics-out"]),
            Err(CliError::MissingValue("--metrics-out"))
        );
    }

    #[test]
    fn backend_flag_selects_the_surrogate() {
        use simra_exec::BackendChoice;
        assert_eq!(parse(&[]).unwrap().backend, BackendChoice::Analog);
        assert_eq!(
            parse(&["quick", "--backend", "surrogate"]).unwrap().backend,
            BackendChoice::Surrogate
        );
        assert_eq!(
            parse(&["--backend", "analog"]).unwrap().backend,
            BackendChoice::Analog
        );
        assert_eq!(
            parse(&["--backend", "hybrid"]).unwrap().backend,
            BackendChoice::Hybrid
        );
        assert_eq!(
            parse(&["--backend", "fast"]),
            Err(CliError::UnknownBackend("fast".into()))
        );
        assert_eq!(
            parse(&["--backend"]),
            Err(CliError::MissingValue("--backend"))
        );
    }

    #[test]
    fn checkpoint_flags_parse() {
        let opts = parse(&["quick", "--checkpoint-dir", "ckpt"]).unwrap();
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpt"));
        assert!(!opts.resume);
        let opts = parse(&["--checkpoint-dir", "ckpt", "--resume"]).unwrap();
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpt"));
        assert!(opts.resume);
        assert_eq!(
            parse(&["--checkpoint-dir"]),
            Err(CliError::MissingValue("--checkpoint-dir"))
        );
    }

    #[test]
    fn resume_requires_a_checkpoint_dir() {
        assert_eq!(parse(&["--resume"]), Err(CliError::ResumeWithoutDir));
        assert_eq!(
            parse(&["quick", "--resume"]),
            Err(CliError::ResumeWithoutDir)
        );
        assert!(CliError::ResumeWithoutDir
            .to_string()
            .contains("--checkpoint-dir"));
    }

    #[test]
    fn shards_flag_parses_and_validates() {
        let opts = parse(&["quick", "--shards", "4"]).unwrap();
        assert_eq!(opts.shards, Some(4));
        assert!(opts.shard_worker.is_none());
        for bad in ["0", "-1", "four", "4.5", ""] {
            assert_eq!(
                parse(&["--shards", bad]),
                Err(CliError::InvalidShards(bad.into())),
                "--shards {bad:?} must be rejected"
            );
        }
        assert_eq!(
            parse(&["--shards"]),
            Err(CliError::MissingValue("--shards"))
        );
    }

    #[test]
    fn shard_worker_flag_parses_and_validates() {
        let opts = parse(&["quick", "--shard-worker", "1/4", "--checkpoint-dir", "d"]).unwrap();
        assert_eq!(opts.shard_worker, Some((1, 4)));
        for bad in ["4/4", "5/4", "1", "1/0", "a/4", "1/b", "/4", "1/", ""] {
            assert_eq!(
                parse(&["--shard-worker", bad, "--checkpoint-dir", "d"]),
                Err(CliError::InvalidShardWorker(bad.into())),
                "--shard-worker {bad:?} must be rejected"
            );
        }
        assert_eq!(
            parse(&["--shard-worker"]),
            Err(CliError::MissingValue("--shard-worker"))
        );
    }

    #[test]
    fn shard_flag_combinations_are_policed() {
        assert_eq!(
            parse(&[
                "--shards",
                "2",
                "--shard-worker",
                "0/2",
                "--checkpoint-dir",
                "d"
            ]),
            Err(CliError::ShardConflict)
        );
        assert_eq!(
            parse(&["--shard-worker", "0/2"]),
            Err(CliError::ShardWorkerWithoutDir)
        );
        assert_eq!(
            parse(&["--shards", "2", "--checkpoint-dir", "d", "--resume"]),
            Err(CliError::ShardsWithResume)
        );
        for flag in [&["--metrics"][..], &["--metrics-out", "m.json"]] {
            let mut args = vec!["--shard-worker", "0/2", "--checkpoint-dir", "d"];
            args.extend_from_slice(flag);
            assert_eq!(parse(&args), Err(CliError::ShardWorkerWithMetrics));
        }
        // A coordinator without --checkpoint-dir is fine (temp root).
        assert_eq!(parse(&["--shards", "2"]).unwrap().shards, Some(2));
    }

    #[test]
    fn errors_render_a_diagnostic() {
        assert_eq!(
            CliError::UnknownFlag("--x".into()).to_string(),
            "unknown flag: --x"
        );
        assert!(CliError::UnknownScale("fast".into())
            .to_string()
            .contains("expected quick | reduced | paper"));
        assert!(USAGE.contains("--metrics-out"));
        assert!(USAGE.contains("--shards <N>"));
        assert!(USAGE.contains("--shard-worker <i>/<N>"));
    }
}
