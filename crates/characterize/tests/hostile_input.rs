//! Hostile input for the hand-rolled JSON parsers: the generic
//! `json::Value` parser, telemetry `Snapshot`s and sweep manifests.
//! Each case mutates a document the code itself rendered, with a stream
//! seeded by the case number, and the parser must answer `Ok` or a
//! typed error — never panic. The checkpoint journal's loop lives in
//! `checkpoint`'s unit tests.
//!
//! This crate is the lowest one that sees all three parsers, so the
//! loops share one mutator here.

use std::panic::{catch_unwind, UnwindSafe};

use simra_dram::Rng;
use simra_exec::{stable_digest, PointDigest, ShardSpec, SweepManifest};
use simra_faults::FaultPlan;
use simra_telemetry::json::Value;
use simra_telemetry::{Recorder, Snapshot};

const CASES: u64 = 2048;

/// The bytes a replacement or insertion draws from: every byte that
/// carries JSON structure, plus digits and number syntax.
const ALPHABET: &[u8] = b"{}[]\",:0123456789eE.-\\";

/// One to three random edits of `doc`: replace, delete or insert an
/// [`ALPHABET`] byte, truncate, duplicate a span, or splice in a
/// 20-digit number.
fn mutate(doc: &str, rng: &mut Rng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..=bytes.len());
        let symbol = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..6u32) {
            0 if at < bytes.len() => bytes[at] = symbol,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, symbol),
            3 => bytes.truncate(at),
            4 => {
                let end = rng.gen_range(at..=bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
            _ => {
                // Past u64::MAX, so integer fields must reject it.
                let digits = format!(
                    "{}{:019}",
                    rng.gen_range(1..10u64),
                    rng.gen::<u64>() % 10u64.pow(19)
                );
                bytes.splice(at..at, digits.into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds `CASES` mutations of `doc` to `parse`, naming the case and its
/// input if the parser panics. The mutations must get both answers, or
/// the loop proves nothing.
fn survives<T, E>(doc: &str, parse: impl Fn(&str) -> Result<T, E> + Copy + UnwindSafe) {
    let mut rejected = 0;
    for case in 0..CASES {
        let input = mutate(doc, &mut Rng::seed_from_u64(case));
        let shown = input.clone();
        match catch_unwind(move || parse(&input).is_err()) {
            Ok(is_err) => rejected += u64::from(is_err),
            Err(_) => panic!("case {case}: the parser panicked on {shown:?}"),
        }
    }
    assert!(
        0 < rejected && rejected < CASES,
        "{rejected}/{CASES} rejected"
    );
}

fn snapshot_doc() -> String {
    let recorder = Recorder::new();
    recorder.enable();
    recorder.counter("fleet", "task_completed").add(12);
    let histogram = recorder.histogram("hybrid", "analog_trials_per_point");
    for v in [1.0, 2.5, 8.0, 1e-3] {
        histogram.observe(v);
    }
    drop(recorder.span("figure", "fig3"));
    recorder.snapshot().to_json()
}

fn manifest_doc() -> String {
    SweepManifest {
        schema_version: simra_exec::SWEEP_MANIFEST_SCHEMA_VERSION,
        sweep_id: "sweep-0003".into(),
        seed: 0xD5A,
        backend: "hybrid".into(),
        faults: FaultPlan::preset("chaos", 4)
            .expect("chaos preset")
            .to_json(),
        config_digest: stable_digest("config"),
        modules: 4,
        points: [2u32, 4, 32]
            .iter()
            .map(|&n| PointDigest {
                n,
                params_digest: stable_digest(&n.to_string()),
            })
            .collect(),
        shard: Some(ShardSpec { index: 1, count: 2 }),
    }
    .to_json()
}

#[test]
fn the_seed_documents_parse() {
    assert!(Value::parse(&snapshot_doc()).is_ok());
    assert!(Snapshot::parse(&snapshot_doc()).is_ok());
    assert!(SweepManifest::from_json(&manifest_doc()).is_ok());
}

#[test]
fn the_json_value_parser_survives_mutations() {
    survives(&snapshot_doc(), Value::parse);
}

#[test]
fn the_snapshot_parser_survives_mutations() {
    survives(&snapshot_doc(), Snapshot::parse);
}

#[test]
fn the_sweep_manifest_parser_survives_mutations() {
    survives(&manifest_doc(), SweepManifest::from_json);
}
