//! The APA analog engine: glue between a subarray's stored state and the
//! charge/sense/restore primitives.
//!
//! The engine is deliberately stateless (parameters + operating conditions
//! only); the mutable state lives in the [`Subarray`]. Operations in
//! `simra-core` compose engine calls into full PUD operations.

use std::cell::RefCell;
use std::fmt;

use simra_dram::rng::box_muller;
use simra_dram::{ApaTiming, BitRow, Rng, Subarray};
use simra_telemetry::{Counter, Recorder};

use crate::charge::{bitline_deltas_batch_into, bitline_deltas_into_scalar};
use crate::params::{CircuitParams, OperatingConditions};
use crate::sense::{resolve, restore_probability, survival_probability};

/// Telemetry counters for the engine's three analog primitives. Each
/// engine owns a handle set bound to one [`Recorder`]; each recording is
/// a relaxed load (plus one relaxed add when telemetry is enabled), so
/// the multi-million-call sense hot path stays unperturbed when
/// telemetry is off.
///
/// The counters are observational only: two engines that differ solely
/// in where they report compare equal and compute identical results.
#[derive(Clone)]
pub struct EngineCounters {
    sense: Counter,
    charge_share: Counter,
    commit: Counter,
}

impl EngineCounters {
    /// Counter handles bound to `recorder` under the `engine` module.
    pub fn recorded_by(recorder: &Recorder) -> Self {
        EngineCounters {
            sense: recorder.counter("engine", "sense_ops"),
            charge_share: recorder.counter("engine", "charge_share_ops"),
            commit: recorder.counter("engine", "commit_ops"),
        }
    }
}

impl Default for EngineCounters {
    /// Binds to a fresh, disabled recorder: an engine no session wired
    /// up counts its ops nowhere.
    fn default() -> Self {
        EngineCounters::recorded_by(&Recorder::new())
    }
}

impl fmt::Debug for EngineCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineCounters")
            .field("sense", &self.sense.get())
            .field("charge_share", &self.charge_share.get())
            .field("commit", &self.commit.get())
            .finish()
    }
}

/// Reusable per-thread buffers for [`ApaEngine::sense_batch`]:
/// characterization sweeps call it millions of times, and the row-weight
/// list and the capacitance accumulator would otherwise be allocated on
/// every call.
#[derive(Default)]
struct SenseScratch {
    rows_weights: Vec<(u32, f64)>,
    cap_sum: Vec<f64>,
    /// Flat per-trial delta buffer for [`ApaEngine::sense_batch`]: at
    /// `trials · cols` f64s it crosses the allocator's mmap threshold,
    /// so a fresh allocation per batch would pay page faults on every
    /// call.
    batch_deltas: Vec<f64>,
}

impl SenseScratch {
    /// Disjoint borrows of the scratch fields one batched sense needs.
    #[allow(clippy::type_complexity)]
    fn split_for_batch(&mut self) -> (&[(u32, f64)], &mut Vec<f64>, &mut Vec<f64>) {
        (
            &self.rows_weights,
            &mut self.cap_sum,
            &mut self.batch_deltas,
        )
    }
}

thread_local! {
    static SENSE_SCRATCH: RefCell<SenseScratch> = RefCell::new(SenseScratch::default());
}

/// The analog outcome of connecting a set of rows to the bitlines.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseResult {
    /// Normalized bitline perturbation per column (before offsets).
    pub deltas: Vec<f64>,
    /// The value each sense amplifier resolves to with zero trial noise.
    pub resolved: BitRow,
}

/// A stack of per-trial voltage snapshots of one row group, consumed by
/// [`ApaEngine::sense_batch`].
///
/// Characterization redraws the *data* of a row group several times and
/// senses after each redraw; only the voltage plane changes between
/// redraws (writes never touch the capacitance/strength variation
/// planes). Callers snapshot the voltages of the group's rows after each
/// write ([`SenseBatch::snapshot_trial`]) and then sense every trial in
/// one batched kernel pass, which walks the variation planes once for
/// the whole batch.
#[derive(Debug, Clone)]
pub struct SenseBatch {
    rows: Vec<u32>,
    cols: usize,
    voltages: Vec<f32>,
}

impl SenseBatch {
    /// An empty batch over `rows` (local indices) of a `cols`-wide
    /// subarray.
    pub fn new(rows: &[u32], cols: usize) -> Self {
        SenseBatch {
            rows: rows.to_vec(),
            cols,
            voltages: Vec::new(),
        }
    }

    /// The row group the snapshots cover.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of snapshots taken so far.
    pub fn trials(&self) -> usize {
        if self.rows.is_empty() {
            return 0;
        }
        self.voltages.len() / (self.rows.len() * self.cols)
    }

    /// Appends one trial: the current voltages of the batch's rows.
    pub fn snapshot_trial(&mut self, subarray: &Subarray) {
        assert_eq!(
            subarray.cols() as usize,
            self.cols,
            "snapshot subarray width differs from the batch"
        );
        for &row in &self.rows {
            self.voltages
                .extend_from_slice(&subarray.row_voltages(row)[..self.cols]);
        }
    }
}

/// The analog engine for one module's chips.
#[derive(Debug, Clone)]
pub struct ApaEngine {
    params: CircuitParams,
    cond: OperatingConditions,
    biased_amps: bool,
    counters: EngineCounters,
}

/// Engines compare by physics (parameters, conditions, amp bias) only —
/// the telemetry destination is observational and never affects results.
impl PartialEq for ApaEngine {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.cond == other.cond
            && self.biased_amps == other.biased_amps
    }
}

impl ApaEngine {
    /// An engine with explicit parameters whose op counters report to a
    /// fresh, disabled recorder ([`EngineCounters::default`]).
    pub fn new(params: CircuitParams, cond: OperatingConditions, biased_amps: bool) -> Self {
        ApaEngine::with_counters(params, cond, biased_amps, EngineCounters::default())
    }

    /// An engine with explicit parameters reporting to `counters` —
    /// the session-owned path. Cloning a handle set is three `Arc`
    /// bumps, so trial loops that build an engine per trial stay off
    /// the recorder's registry lock.
    pub fn with_counters(
        params: CircuitParams,
        cond: OperatingConditions,
        biased_amps: bool,
        counters: EngineCounters,
    ) -> Self {
        ApaEngine {
            params,
            cond,
            biased_amps,
            counters,
        }
    }

    /// The engine's circuit parameters.
    pub fn params(&self) -> &CircuitParams {
        &self.params
    }

    /// The operating conditions.
    pub fn conditions(&self) -> OperatingConditions {
        self.cond
    }

    /// Whether this part's sense amplifiers are biased (Mfr. M).
    pub fn biased_amps(&self) -> bool {
        self.biased_amps
    }

    /// Senses the simultaneously open `rows` (local indices), where
    /// `first_row` is the APA's `R_F` (it over-shares for long ACT→ACT
    /// windows). Returns per-column perturbations and the zero-noise
    /// resolution.
    ///
    /// A batch of one: the rows' current voltages become a one-trial
    /// [`SenseBatch`] sensed by [`sense_batch`](Self::sense_batch), so a
    /// call counts one sense and `rows.len()` charge shares.
    ///
    /// # Contract
    ///
    /// `first_row` must be a member of `rows` — R_F is by definition one
    /// of the simultaneously opened rows. A violation trips a
    /// `debug_assert`; release builds fall back to treating the first
    /// listed row as R_F (the historical behavior), which silently
    /// misattributes the over-share weight.
    pub fn sense(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        first_row: u32,
        timing: ApaTiming,
    ) -> SenseResult {
        let mut batch = SenseBatch::new(rows, subarray.cols() as usize);
        batch.snapshot_trial(subarray);
        self.sense_batch(subarray, &batch, first_row, timing)
            .pop()
            .expect("a one-trial batch over a non-empty row group senses one result")
    }

    /// [`sense`](Self::sense) through the frozen pre-vectorization
    /// scalar kernel ([`bitline_deltas_into_scalar`]) instead of the
    /// batched one. Bit-identical to `sense` by the kernel's bit-identity
    /// contract; exists as the anchor the identity tests compare
    /// against.
    pub fn sense_reference(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        first_row: u32,
        timing: ApaTiming,
    ) -> SenseResult {
        let ops = &self.counters;
        ops.sense.incr();
        // One charge-share event per simultaneously opened row.
        ops.charge_share.add(rows.len() as u64);
        let first_index = first_row_index(rows, first_row);
        let first_weight = self.params.first_row_weight(rows.len(), timing);
        let assertion =
            self.params.assertion_strength(timing, self.cond) * self.group_factor(subarray, rows);
        let mut deltas = Vec::new();
        SENSE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.rows_weights.clear();
            scratch.rows_weights.extend(
                rows.iter()
                    .enumerate()
                    .map(|(i, &row)| (row, if i == first_index { first_weight } else { 1.0 })),
            );
            bitline_deltas_into_scalar(
                subarray,
                &scratch.rows_weights,
                self.params.transfer_amp(rows.len()),
                assertion,
                self.params.beta,
                &mut scratch.cap_sum,
                &mut deltas,
            );
        });
        let offsets = subarray.sense_offsets();
        let biases = subarray.bias_directions();
        let resolved = BitRow::from_bits(deltas.iter().enumerate().map(|(c, &delta)| {
            resolve(delta, offsets[c] as f64, 0.0, self.biased_amps, biases[c])
        }));
        SenseResult { deltas, resolved }
    }

    /// Deterministic multiplicative margin factor for a row group:
    /// groups far from their local wordline drivers / sense-amp stripes
    /// are systematically weaker. Hashed from the group's rows plus the
    /// subarray's silicon so the same group always measures the same.
    fn group_factor(&self, subarray: &Subarray, rows: &[u32]) -> f64 {
        if rows.len() <= 1 {
            return 1.0;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ subarray.sense_offset(0).to_bits() as u64;
        for &r in rows {
            h = (h ^ (r as u64 + 1)).wrapping_mul(0x1000_0000_01b3);
        }
        // Two uniforms from a stream seeded with the hash → one Gaussian
        // (Box–Muller).
        let mut stream = Rng::seed_from_u64(h);
        let mut next = || stream.next_u64() as f64 / u64::MAX as f64;
        let u1 = next().max(f64::EPSILON);
        let u2 = next();
        let g = box_muller(u1, u2);
        // Asymmetric: weak-side outliers are common (long lower whiskers in
        // the paper's box plots) but the strong side saturates — which is
        // why even best-group MAJ9 stays uneconomical (Fig. 16).
        (1.0 + self.params.group_spread_sigma * g).clamp(0.35, 1.28)
    }

    /// Senses with sampled per-trial noise (functional mode; used where a
    /// single concrete trial outcome is needed rather than a statistic).
    pub fn sense_sampled(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        first_row: u32,
        timing: ApaTiming,
        rng: &mut Rng,
    ) -> SenseResult {
        let mut result = self.sense(subarray, rows, first_row, timing);
        let sigma = self.params.trial_noise_sigma;
        let offsets = subarray.sense_offsets();
        let biases = subarray.bias_directions();
        let resolved = BitRow::from_bits(result.deltas.iter().enumerate().map(|(c, &delta)| {
            let noise = rng.standard_normal() * sigma;
            resolve(delta, offsets[c] as f64, noise, self.biased_amps, biases[c])
        }));
        result.resolved = resolved;
        result
    }

    /// [`sense_sampled`](Self::sense_sampled) over `trials` independent
    /// noise redraws of the *same* data state: the deterministic
    /// perturbations are computed once and only the per-trial amplifier
    /// noise is redrawn, so a batch costs one kernel pass plus `trials`
    /// cheap resolve sweeps.
    ///
    /// Equivalent — bit for bit, including the RNG stream position — to
    /// calling `sense_sampled` `trials` times in a loop: the noise draws
    /// happen in the identical (trial-major, column-major) order, and
    /// the deltas are deterministic in the subarray state.
    pub fn sense_sampled_batch(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        first_row: u32,
        timing: ApaTiming,
        trials: usize,
        rng: &mut Rng,
    ) -> Vec<SenseResult> {
        if trials == 0 {
            return Vec::new();
        }
        let base = self.sense(subarray, rows, first_row, timing);
        // `sense` counted one sense / one set of charge shares; account
        // for the remaining logical trials of the batch.
        let ops = &self.counters;
        ops.sense.add(trials as u64 - 1);
        ops.charge_share
            .add(rows.len() as u64 * (trials as u64 - 1));
        let sigma = self.params.trial_noise_sigma;
        let offsets = subarray.sense_offsets();
        let biases = subarray.bias_directions();
        (0..trials)
            .map(|_| {
                let resolved =
                    BitRow::from_bits(base.deltas.iter().enumerate().map(|(c, &delta)| {
                        let noise = rng.standard_normal() * sigma;
                        resolve(delta, offsets[c] as f64, noise, self.biased_amps, biases[c])
                    }));
                SenseResult {
                    deltas: base.deltas.clone(),
                    resolved,
                }
            })
            .collect()
    }

    /// Senses every snapshot in `batch` in one batched kernel pass.
    ///
    /// Result `t` is bit-identical to what [`sense`](Self::sense) would
    /// have returned with the subarray's voltage plane in the state of
    /// snapshot `t`: the capacitance/strength planes (and everything
    /// derived from them — the group factor, the transfer factors, the
    /// denominators) are data-independent, so the batched kernel
    /// computes them once and amortizes one plane traversal plus one
    /// instruction decode over the whole batch.
    ///
    /// `first_row` follows the [`sense`](Self::sense) membership
    /// contract.
    pub fn sense_batch(
        &self,
        subarray: &Subarray,
        batch: &SenseBatch,
        first_row: u32,
        timing: ApaTiming,
    ) -> Vec<SenseResult> {
        let trials = batch.trials();
        if trials == 0 {
            return Vec::new();
        }
        let rows = batch.rows();
        let ops = &self.counters;
        ops.sense.add(trials as u64);
        ops.charge_share.add(rows.len() as u64 * trials as u64);
        let first_index = first_row_index(rows, first_row);
        let first_weight = self.params.first_row_weight(rows.len(), timing);
        let assertion =
            self.params.assertion_strength(timing, self.cond) * self.group_factor(subarray, rows);
        SENSE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.rows_weights.clear();
            scratch.rows_weights.extend(
                rows.iter()
                    .enumerate()
                    .map(|(i, &row)| (row, if i == first_index { first_weight } else { 1.0 })),
            );
            let (rows_weights, cap_sum, flat) = scratch.split_for_batch();
            bitline_deltas_batch_into(
                subarray,
                rows_weights,
                &batch.voltages,
                trials,
                self.params.transfer_amp(rows.len()),
                assertion,
                self.params.beta,
                cap_sum,
                flat,
            );
            let cols = batch.cols;
            let offsets = subarray.sense_offsets();
            let biases = subarray.bias_directions();
            // The column offsets are trial-invariant: widen them once per
            // batch instead of once per (trial, column).
            let offsets_f64: Vec<f64> = offsets.iter().map(|&o| o as f64).collect();
            (0..trials)
                .map(|t| {
                    let deltas = flat[t * cols..(t + 1) * cols].to_vec();
                    let resolved = if self.biased_amps {
                        BitRow::from_bits(deltas.iter().enumerate().map(|(c, &delta)| {
                            resolve(delta, offsets_f64[c], 0.0, true, biases[c])
                        }))
                    } else {
                        // resolve(δ, o, 0, false, _) ≡ δ + o + 0 > 0, and
                        // adding zero never changes the comparison — the
                        // packed form below is boolean-identical.
                        BitRow::from_bits(
                            deltas
                                .iter()
                                .zip(&offsets_f64)
                                .map(|(&delta, &o)| delta + o > 0.0),
                        )
                    };
                    SenseResult { deltas, resolved }
                })
                .collect()
        })
    }

    /// Folds a batch of sense results into the per-column **minimum**
    /// signed margin toward each trial's expected image — the exact
    /// reduction the MAJX characterization loop performs, fused so the
    /// per-trial margin vectors are never materialized.
    ///
    /// Bit-identical to folding
    /// [`margins_toward`](Self::margins_toward) trial by trial with
    /// `f64::min` from an `INFINITY` accumulator, in batch order.
    pub fn margins_batch(
        &self,
        subarray: &Subarray,
        results: &[SenseResult],
        expecteds: &[BitRow],
    ) -> Vec<f64> {
        assert_eq!(
            results.len(),
            expecteds.len(),
            "one expected image per sense result"
        );
        let offsets = subarray.sense_offsets();
        let cols = offsets.len();
        let mut min_margins = vec![f64::INFINITY; cols];
        for (result, expected) in results.iter().zip(expecteds) {
            assert_eq!(expected.len(), cols, "one expected bit per column");
            assert_eq!(result.deltas.len(), cols, "one delta per column");
            // 64 columns per expected-image word.
            let columns = min_margins
                .chunks_mut(64)
                .zip(result.deltas.chunks(64))
                .zip(offsets.chunks(64))
                .zip(expected.words());
            for (((accs, deltas), offsets), &word) in columns {
                for (bit, ((acc, &delta), &offset)) in
                    accs.iter_mut().zip(deltas).zip(offsets).enumerate()
                {
                    let sign = if (word >> bit) & 1 == 1 { 1.0 } else { -1.0 };
                    *acc = acc.min(sign * (delta + offset as f64));
                }
            }
        }
        min_margins
    }

    /// Per-column *signed margin* toward `expected`: perturbation plus
    /// column offset, positive when the amplifier would resolve the
    /// expected way. Characterization accumulates the minimum margin over
    /// data redraws before converting to a survival probability.
    pub fn margins_toward(
        &self,
        subarray: &Subarray,
        deltas: &[f64],
        expected: &BitRow,
    ) -> Vec<f64> {
        deltas
            .iter()
            .zip(subarray.sense_offsets())
            .enumerate()
            .map(|(c, (&delta, &offset))| {
                let sign = if expected.get(c) { 1.0 } else { -1.0 };
                sign * (delta + offset as f64)
            })
            .collect()
    }

    /// Converts a systematic margin into the all-trials survival
    /// probability with this engine's calibration.
    pub fn margin_survival(&self, margin: f64) -> f64 {
        survival_probability(
            margin,
            self.params.sense_deadzone,
            self.params.trial_noise_sigma,
            self.params.effective_trials,
        )
    }

    /// Per-column probability that the amplifier resolves toward
    /// `expected` in *all* of the calibrated trial count — the smooth form
    /// of the paper's success-rate metric for sensing-limited operations
    /// (MAJX).
    pub fn survival_toward(
        &self,
        subarray: &Subarray,
        deltas: &[f64],
        expected: &BitRow,
    ) -> Vec<f64> {
        deltas
            .iter()
            .zip(subarray.sense_offsets())
            .enumerate()
            .map(|(c, (&delta, &offset))| {
                let sign = if expected.get(c) { 1.0 } else { -1.0 };
                let margin = sign * (delta + offset as f64);
                survival_probability(
                    margin,
                    self.params.sense_deadzone,
                    self.params.trial_noise_sigma,
                    self.params.effective_trials,
                )
            })
            .collect()
    }

    /// Commits `values` into every open row with the given restore
    /// strength: cells whose total drive clears the restore threshold take
    /// the new value, the rest keep their old charge. Returns the number
    /// of cells that failed to take the write.
    pub fn commit(
        &self,
        subarray: &mut Subarray,
        rows: &[u32],
        values: &BitRow,
        restore_strength: f64,
    ) -> usize {
        self.counters.commit.incr();
        let n_open = rows.len();
        let frac_ones = values.count_ones() as f64 / values.len().max(1) as f64;
        let wq = self.params.write_quality(self.cond);
        let threshold = self.params.restore_threshold;
        let mut failures = 0;
        for &row in rows {
            let (volts, _, strengths) = subarray.row_split_mut(row);
            for (col, v) in volts.iter_mut().enumerate() {
                let bit = values.get(col);
                let drive = restore_strength
                    * wq
                    * strengths[col] as f64
                    * self.params.restore_drive(bit, n_open, frac_ones);
                if drive >= threshold {
                    *v = if bit { 1.0 } else { 0.0 };
                } else {
                    let old = *v > 0.5;
                    if drive >= threshold * 0.6 {
                        // Partial restore: the cell's charge moves toward
                        // the target but the insufficiently asserted
                        // wordline cannot push it across the midpoint —
                        // the stored digital value survives.
                        let target: f32 = if bit { 1.0 } else { 0.0 };
                        let coupling =
                            (0.45 * (drive - threshold * 0.6) / (threshold * 0.4)) as f32;
                        *v += (target - *v) * coupling.clamp(0.0, 1.0);
                        // Clamp back if the drift would flip the read-out.
                        if (*v > 0.5) != old {
                            *v = 0.5 + if old { 0.01 } else { -0.01 };
                        }
                    }
                    if old != bit {
                        failures += 1;
                    }
                }
            }
            // A fault overlay's stuck cells shrug off the restore drive
            // entirely; re-assert them after the row's write completes.
            subarray.pin_row_faults(row);
        }
        failures
    }

    /// Visits every (row, column) restore probability of a commit, in
    /// the row-major order [`commit_survival_into`](Self::commit_survival_into)
    /// stores them — the one traversal behind the buffered and summing
    /// variants.
    ///
    /// A cell's drive is `restore_strength · wq · strength · droop`,
    /// which Rust evaluates left to right as `((rs·wq)·s)·droop`; the
    /// loop-invariant `rs·wq` and the two droops (one per bit value) are
    /// hoisted out of the cell loop without changing that association,
    /// so every drive is bit-identical to the per-cell form.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not as wide as the subarray.
    fn for_each_restore_probability(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        values: &BitRow,
        restore_strength: f64,
        mut visit: impl FnMut(f64),
    ) {
        assert_eq!(
            values.len(),
            subarray.cols() as usize,
            "one image bit per column"
        );
        let n_open = rows.len();
        let frac_ones = values.count_ones() as f64 / values.len().max(1) as f64;
        let rs_wq = restore_strength * self.params.write_quality(self.cond);
        let droop_one = self.params.restore_drive(true, n_open, frac_ones);
        let droop_zero = self.params.restore_drive(false, n_open, frac_ones);
        for &row in rows {
            let strengths = subarray.row_strength_factors(row);
            for (cells, &word) in strengths.chunks(64).zip(values.words()) {
                for (bit, &strength) in cells.iter().enumerate() {
                    let droop = if (word >> bit) & 1 == 1 {
                        droop_one
                    } else {
                        droop_zero
                    };
                    visit(restore_probability(
                        rs_wq * strength as f64 * droop,
                        &self.params,
                    ));
                }
            }
        }
    }

    /// Per-cell probability that a commit with `restore_strength` sticks,
    /// across all trials — the smooth success metric for restore-limited
    /// operations (WR-overdrive activation tests, Multi-RowCopy) — into
    /// a caller-owned buffer (cleared first; capacity reused across
    /// calls), row-major.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not as wide as the subarray (as does the
    /// summing variant).
    pub fn commit_survival_into(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        values: &BitRow,
        restore_strength: f64,
        probs: &mut Vec<f64>,
    ) {
        probs.clear();
        self.for_each_restore_probability(subarray, rows, values, restore_strength, |p| {
            probs.push(p)
        });
    }

    /// Sum of [`commit_survival_into`](Self::commit_survival_into)'s
    /// probabilities without materializing them, added in the same
    /// row-major order — bit-identical to summing that buffer.
    pub fn commit_survival_sum(
        &self,
        subarray: &Subarray,
        rows: &[u32],
        values: &BitRow,
        restore_strength: f64,
    ) -> f64 {
        let mut sum = 0.0;
        self.for_each_restore_probability(subarray, rows, values, restore_strength, |p| sum += p);
        sum
    }
}

/// Resolves `first_row` to its index in `rows` under the
/// [`ApaEngine::sense`] membership contract: debug builds assert, the
/// release fallback is index 0 (the historical behavior).
fn first_row_index(rows: &[u32], first_row: u32) -> usize {
    let pos = rows.iter().position(|r| *r == first_row);
    debug_assert!(
        pos.is_some(),
        "sense: first_row {first_row} is not in rows {rows:?}; falling back to index 0"
    );
    pos.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_dram::subarray::VariationParams;

    fn subarray() -> Subarray {
        Subarray::new(64, 128, VariationParams::default(), 5)
    }

    fn engine() -> ApaEngine {
        ApaEngine::new(
            CircuitParams::calibrated(),
            OperatingConditions::nominal(),
            false,
        )
    }

    #[test]
    fn sense_resolves_clear_majority() {
        let mut sa = subarray();
        let e = engine();
        sa.write_row(0, &BitRow::ones(128)).unwrap();
        sa.write_row(1, &BitRow::ones(128)).unwrap();
        sa.write_row(2, &BitRow::zeros(128)).unwrap();
        sa.write_row(3, &BitRow::ones(128)).unwrap();
        let r = e.sense(&sa, &[0, 1, 2, 3], 0, ApaTiming::best_for_majx());
        // 3-vs-1: every column should resolve to 1.
        assert_eq!(r.resolved.count_ones(), 128);
    }

    #[test]
    fn survival_high_for_wide_margin() {
        let mut sa = subarray();
        let e = engine();
        for row in 0..8 {
            sa.write_row(row, &BitRow::ones(128)).unwrap();
        }
        let rows: Vec<u32> = (0..8).collect();
        let r = e.sense(&sa, &rows, 0, ApaTiming::best_for_majx());
        let surv = e.survival_toward(&sa, &r.deltas, &BitRow::ones(128));
        let mean: f64 = surv.iter().sum::<f64>() / surv.len() as f64;
        assert!(mean > 0.99, "mean survival {mean}");
    }

    #[test]
    fn survival_low_against_the_majority() {
        let mut sa = subarray();
        let e = engine();
        for row in 0..8 {
            sa.write_row(row, &BitRow::ones(128)).unwrap();
        }
        let rows: Vec<u32> = (0..8).collect();
        let r = e.sense(&sa, &rows, 0, ApaTiming::best_for_majx());
        let surv = e.survival_toward(&sa, &r.deltas, &BitRow::zeros(128));
        let mean: f64 = surv.iter().sum::<f64>() / surv.len() as f64;
        assert!(mean < 0.01, "mean survival {mean}");
    }

    #[test]
    fn commit_full_strength_sticks() {
        let mut sa = subarray();
        let e = engine();
        let img = BitRow::ones(128);
        let failures = e.commit(&mut sa, &[3, 4], &img, 1.0);
        assert_eq!(failures, 0);
        assert_eq!(sa.read_row(3).unwrap(), img);
        assert_eq!(sa.read_row(4).unwrap(), img);
    }

    #[test]
    fn commit_weak_strength_fails_cells() {
        let mut sa = subarray();
        let e = engine();
        let img = BitRow::ones(128);
        // Far below the restore threshold: nothing should take the write.
        let failures = e.commit(&mut sa, &[3], &img, 0.3);
        assert_eq!(failures, 128);
        assert_eq!(sa.read_row(3).unwrap().count_ones(), 0);
    }

    #[test]
    fn commit_survival_tracks_strength() {
        let sa = subarray();
        let e = engine();
        let img = BitRow::ones(128);
        let (mut strong, mut weak) = (Vec::new(), Vec::new());
        e.commit_survival_into(&sa, &[0], &img, 1.0, &mut strong);
        e.commit_survival_into(&sa, &[0], &img, 0.85, &mut weak);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&strong) > mean(&weak));
        assert!(mean(&strong) > 0.99);
    }

    #[test]
    fn sampled_sense_is_seed_deterministic() {
        let mut sa = subarray();
        let e = engine();
        sa.write_row(0, &BitRow::ones(128)).unwrap();
        sa.write_row(1, &BitRow::zeros(128)).unwrap();
        let mut r1 = Rng::seed_from_u64(3);
        let mut r2 = Rng::seed_from_u64(3);
        let a = e.sense_sampled(&sa, &[0, 1], 0, ApaTiming::best_for_majx(), &mut r1);
        let b = e.sense_sampled(&sa, &[0, 1], 0, ApaTiming::best_for_majx(), &mut r2);
        assert_eq!(a.resolved, b.resolved);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not in rows")]
    fn sense_rejects_a_foreign_first_row_in_debug() {
        let mut sa = subarray();
        let e = engine();
        sa.write_row(0, &BitRow::ones(128)).unwrap();
        // 7 is not a member of the activated group: contract violation.
        e.sense(&sa, &[0, 1], 7, ApaTiming::best_for_majx());
    }

    #[test]
    fn sense_batch_matches_sense_per_trial() {
        let mut sa = subarray();
        let e = engine();
        let rows = [2u32, 3, 6, 7];
        let images = [
            BitRow::ones(128),
            BitRow::zeros(128),
            BitRow::from_bits((0..128).map(|c| c % 2 == 0)),
        ];
        let mut batch = SenseBatch::new(&rows, 128);
        let mut reference = Vec::new();
        for img in &images {
            for (i, &row) in rows.iter().enumerate() {
                let mut img = img.clone();
                if i % 2 == 1 {
                    img = img.complement();
                }
                sa.write_row(row, &img).unwrap();
            }
            batch.snapshot_trial(&sa);
            reference.push(e.sense(&sa, &rows, 3, ApaTiming::best_for_majx()));
        }
        assert_eq!(batch.trials(), images.len());
        let batched = e.sense_batch(&sa, &batch, 3, ApaTiming::best_for_majx());
        assert_eq!(batched.len(), reference.len());
        for (t, (b, r)) in batched.iter().zip(&reference).enumerate() {
            assert_eq!(b.resolved, r.resolved, "trial {t}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b.deltas), bits(&r.deltas), "trial {t} deltas");
        }
    }

    #[test]
    fn sense_sampled_batch_replays_the_scalar_loop() {
        let mut sa = subarray();
        let e = engine();
        sa.write_row(0, &BitRow::ones(128)).unwrap();
        sa.write_row(1, &BitRow::zeros(128)).unwrap();
        let mut loop_rng = Rng::seed_from_u64(17);
        let mut batch_rng = Rng::seed_from_u64(17);
        let batched = e.sense_sampled_batch(
            &sa,
            &[0, 1],
            0,
            ApaTiming::best_for_majx(),
            5,
            &mut batch_rng,
        );
        for (t, b) in batched.iter().enumerate() {
            let scalar =
                e.sense_sampled(&sa, &[0, 1], 0, ApaTiming::best_for_majx(), &mut loop_rng);
            assert_eq!(b.resolved, scalar.resolved, "trial {t}");
            assert_eq!(b.deltas, scalar.deltas, "trial {t}");
        }
        assert_eq!(
            batch_rng.gen::<u64>(),
            loop_rng.gen::<u64>(),
            "same residual stream position"
        );
    }

    #[test]
    fn margins_batch_is_the_min_fold_of_margins_toward() {
        let mut sa = subarray();
        let e = engine();
        let rows = [0u32, 1, 2];
        let images = [
            BitRow::ones(128),
            BitRow::zeros(128),
            BitRow::from_bits((0..128).map(|c| c % 3 == 0)),
        ];
        let mut batch = SenseBatch::new(&rows, 128);
        let mut expecteds = Vec::new();
        let mut min_ref = vec![f64::INFINITY; 128];
        for img in &images {
            for &row in &rows {
                sa.write_row(row, img).unwrap();
            }
            batch.snapshot_trial(&sa);
            let sense = e.sense(&sa, &rows, 0, ApaTiming::best_for_majx());
            for (acc, m) in min_ref
                .iter_mut()
                .zip(e.margins_toward(&sa, &sense.deltas, img))
            {
                *acc = acc.min(m);
            }
            expecteds.push(img.clone());
        }
        let results = e.sense_batch(&sa, &batch, 0, ApaTiming::best_for_majx());
        let fused = e.margins_batch(&sa, &results, &expecteds);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&min_ref));
    }

    #[test]
    fn commit_survival_variants_agree() {
        let sa = subarray();
        let e = engine();
        let img = BitRow::from_bits((0..128).map(|c| c % 5 != 0));
        let mut probs = Vec::new();
        e.commit_survival_into(&sa, &[1, 4, 9], &img, 0.93, &mut probs);
        assert_eq!(probs.len(), 3 * 128);
        // A used buffer is cleared first.
        let mut buffered = vec![0.25; 3];
        e.commit_survival_into(&sa, &[1, 4, 9], &img, 0.93, &mut buffered);
        assert_eq!(probs, buffered);
        let sum = e.commit_survival_sum(&sa, &[1, 4, 9], &img, 0.93);
        assert_eq!(sum.to_bits(), probs.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn commit_survival_is_the_per_cell_restore_probability() {
        // Two conditions: at 50 °C write quality is exactly 1.0; at 85 °C
        // it is not, so any reassociation of the drive product shows.
        let engines = [
            engine(),
            ApaEngine::new(
                CircuitParams::calibrated(),
                OperatingConditions::with_temperature(85.0),
                false,
            ),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng::seed_from_u64(29);
        let mut got = Vec::new();
        let (mut saturated, mut mid, mut dead) = (0, 0, 0);
        for e in &engines {
            let p = e.params();
            for cols in [1u32, 63, 64, 65, 129, 256] {
                let sa = Subarray::new(64, cols, VariationParams::default(), 5);
                for n in [1usize, 2, 32] {
                    let rows: Vec<u32> = (0..n as u32).map(|i| 2 * i).collect();
                    let img = BitRow::random(&mut rng, cols as usize);
                    let frac_ones = img.count_ones() as f64 / cols as f64;
                    // Saturated, around the restore threshold, and dead.
                    for rs in [1.0, 0.87, 0.85, 0.83, 0.3] {
                        let mut want = Vec::new();
                        for &row in &rows {
                            for (col, &s) in sa.row_strength_factors(row).iter().enumerate() {
                                let bit = img.get(col);
                                let drive = rs
                                    * p.write_quality(e.conditions())
                                    * s as f64
                                    * p.restore_drive(bit, n, frac_ones);
                                want.push(restore_probability(drive, p));
                            }
                        }
                        e.commit_survival_into(&sa, &rows, &img, rs, &mut got);
                        assert_eq!(bits(&got), bits(&want), "cols {cols}, N {n}, rs {rs}");
                        let sum = e.commit_survival_sum(&sa, &rows, &img, rs);
                        assert_eq!(sum.to_bits(), want.iter().sum::<f64>().to_bits());
                        saturated += want.iter().filter(|&&q| q == 1.0).count();
                        dead += want.iter().filter(|&&q| q == 0.0).count();
                        mid += want.iter().filter(|&&q| q > 0.0 && q < 1.0).count();
                    }
                }
            }
        }
        assert!(
            saturated > 1000 && dead > 1000 && mid > 1000,
            "regimes covered: {saturated} saturated, {mid} mid, {dead} dead"
        );
    }

    #[test]
    #[should_panic(expected = "one image bit per column")]
    fn commit_survival_rejects_a_narrow_image() {
        engine().commit_survival_into(&subarray(), &[0], &BitRow::ones(127), 1.0, &mut Vec::new());
    }

    #[test]
    fn biased_amps_break_ties_deterministically() {
        // A perfectly balanced bitline with zero offset: unbiased resolves
        // by sign (false), biased follows the column bias.
        let v = VariationParams {
            cell_cap_sigma: 0.0,
            cell_strength_sigma: 0.0,
            sense_offset_sigma: 0.0,
        };
        let mut sa = Subarray::new(4, 32, v, 9);
        sa.write_row(0, &BitRow::ones(32)).unwrap();
        sa.write_row(1, &BitRow::zeros(32)).unwrap();
        let biased = ApaEngine::new(
            CircuitParams::calibrated(),
            OperatingConditions::nominal(),
            true,
        );
        let r = biased.sense(&sa, &[0, 1], 0, ApaTiming::best_for_majx());
        for c in 0..32 {
            assert_eq!(r.resolved.get(c), sa.bias_direction(c as u32));
        }
    }
}
