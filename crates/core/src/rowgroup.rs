//! Row-group algebra: choosing (R_F, R_S) pairs that simultaneously
//! activate exactly N rows, and sampling the paper's test population
//! (3 subarrays per bank × 16 banks × 100 groups per N).

use simra_bender::TestSetup;
use simra_decoder::{ApaOutcome, RowDecoder, MAX_PREDECODERS};
use simra_dram::{ApaTiming, BankId, Geometry, Rng, RowAddr, SubarrayId};

use crate::error::PudError;

/// One group of simultaneously activated rows in one subarray.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Bank the group lives in.
    pub bank: BankId,
    /// Subarray within the bank.
    pub subarray: SubarrayId,
    /// First APA target (bank-level address).
    pub r_f: RowAddr,
    /// Second APA target (bank-level address).
    pub r_s: RowAddr,
    /// Local (in-subarray) indices of all simultaneously activated rows,
    /// sorted ascending.
    pub local_rows: Vec<u32>,
}

impl GroupSpec {
    /// Number of simultaneously activated rows.
    pub fn n_rows(&self) -> usize {
        self.local_rows.len()
    }

    /// Local index of `R_F` within the subarray.
    pub fn local_r_f(&self, geometry: &Geometry) -> u32 {
        geometry
            .split_row(self.r_f)
            .expect("group was built from this geometry")
            .1
    }
}

/// Resolves `group`'s APA with `timing` and returns its open local rows,
/// or [`PudError::UnexpectedActivation`] unless the decoder opens exactly
/// the group's rows at once.
pub(crate) fn expect_simultaneous(
    setup: &TestSetup,
    group: &GroupSpec,
    timing: ApaTiming,
) -> Result<Vec<u32>, PudError> {
    let (_, outcome) = setup.resolve_apa(group.bank, group.r_f, group.r_s, timing)?;
    match outcome {
        ApaOutcome::Simultaneous { rows } if rows == group.local_rows => Ok(rows),
        other => Err(PudError::UnexpectedActivation {
            expected: format!("simultaneous activation of {} rows", group.n_rows()),
            got: format!("{other:?}"),
        }),
    }
}

/// Panics unless `n` is a group size the decoder can open: a power of
/// two ≤ 32.
pub fn assert_group_size(n: u32) {
    assert!(
        n.is_power_of_two() && n <= 32,
        "n must be a power of two ≤ 32, got {n}"
    );
}

/// One drawn group in compact form: its bank, its subarray, the local
/// indices of `R_F` and `R_S`, and N, in 10 bytes with nothing on the
/// heap. A table-backed trial needs only N ([`GroupPick::n_rows`]); a
/// physical trial needs the rows the APA opens, which
/// [`GroupPick::resolve`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupPick {
    bank: BankId,
    subarray: SubarrayId,
    local_f: u16,
    local_s: u16,
    n: u8,
}

impl GroupPick {
    /// Number of simultaneously activated rows.
    pub fn n_rows(&self) -> usize {
        usize::from(self.n)
    }

    /// The group as a [`GroupSpec`] on `geometry`, the geometry it was
    /// drawn on: its bank-level addresses and every row its APA opens.
    pub fn resolve(&self, geometry: &Geometry) -> GroupSpec {
        let (local_f, local_s) = (u32::from(self.local_f), u32::from(self.local_s));
        let decoder = RowDecoder::for_subarray_rows(geometry.rows_per_subarray);
        let local_rows = decoder.simultaneous_rows(local_f, local_s);
        debug_assert_eq!(local_rows.len(), self.n_rows(), "{self:?}");
        GroupSpec {
            bank: self.bank,
            subarray: self.subarray,
            r_f: geometry.join_row(self.subarray, local_f),
            r_s: geometry.join_row(self.subarray, local_s),
            local_rows,
        }
    }
}

/// Builds a group with exactly `n` rows (power of two ≤ 32) in the given
/// bank/subarray, choosing `R_F` at random and `R_S` by re-drawing random
/// outputs in `log2(n)` random predecoder groups.
///
/// Returns `None` only if the subarray cannot host such a group (can
/// happen near the clipped top of non-power-of-two subarrays); callers
/// retry with a fresh draw.
///
/// [`sample_groups`] makes exactly the same RNG draws per group, so a
/// loop of these calls returns its groups, resolved.
pub fn random_group(
    geometry: &Geometry,
    bank: BankId,
    subarray: SubarrayId,
    n: u32,
    rng: &mut Rng,
) -> Option<GroupSpec> {
    let decoder = RowDecoder::for_subarray_rows(geometry.rows_per_subarray);
    draw_pick(&decoder, geometry, bank, subarray, n, rng).map(|pick| pick.resolve(geometry))
}

/// The one draw body of [`random_group`] and [`sample_groups`], on a
/// decoder the caller built for `geometry.rows_per_subarray`. The draw
/// opens exactly `n` rows unless the top row of its product lies past
/// the subarray ([`top_row`]), so it allocates nothing.
fn draw_pick(
    decoder: &RowDecoder,
    geometry: &Geometry,
    bank: BankId,
    subarray: SubarrayId,
    n: u32,
    rng: &mut Rng,
) -> Option<GroupPick> {
    assert_group_size(n);
    let local_f = rng.gen_range(0..geometry.rows_per_subarray);
    let d = n.trailing_zeros() as usize;
    // Pick d distinct predecoder groups and flip each to a different
    // random output value.
    let mut order: [usize; MAX_PREDECODERS] = std::array::from_fn(|i| i);
    let group_idx = &mut order[..decoder.groups().len()];
    partial_shuffle(group_idx, d, rng);
    let mut local_s = local_f;
    for &gi in group_idx.iter().take(d) {
        let g = decoder.groups()[gi];
        let cur = g.output_for(local_f);
        let mut alt = rng.gen_range(0..g.outputs());
        if g.outputs() > 1 {
            while alt == cur {
                alt = rng.gen_range(0..g.outputs());
            }
        }
        local_s = (local_s & !((g.outputs() - 1) << g.shift)) | (alt << g.shift);
    }
    // Each flipped predecoder differs, so the product has 2^d = n rows
    // unless the decoder has fewer than d predecoders or the product
    // reaches past the subarray's last row.
    if d > group_idx.len() || top_row(decoder, local_f, local_s) >= geometry.rows_per_subarray {
        return None;
    }
    // Subarray heights fit 13 bits (`RowDecoder::for_subarray_rows`).
    Some(GroupPick {
        bank,
        subarray,
        local_f: local_f as u16,
        local_s: local_s as u16,
        n: n as u8,
    })
}

/// The highest row of the product an APA on `(r_f, r_s)` opens before
/// clipping: the higher of the two outputs in every predecoder. The
/// product is clipped (some of its `2^d` rows do not exist) exactly when
/// this row lies past the subarray's last.
fn top_row(decoder: &RowDecoder, r_f: u32, r_s: u32) -> u32 {
    decoder
        .groups()
        .iter()
        .map(|g| g.output_for(r_f).max(g.output_for(r_s)) << g.shift)
        .fold(0, |top, field| top | field)
}

/// Samples the paper's test population: `groups_per_subarray` random
/// groups of `n` simultaneously activated rows in each of
/// `subarrays_per_bank` randomly chosen subarrays of each of `banks`
/// banks. (The paper uses 100 × 3 × 16; experiments here default lower and
/// report the reduction.)
///
/// Returns each group as a [`GroupPick`]; a caller that needs rows
/// resolves it. Every group comes from one [`RowDecoder`], built once
/// per call; the resolved result and the RNG's final position equal
/// those of the same loop over [`random_group`].
pub fn sample_groups(
    geometry: &Geometry,
    n: u32,
    banks: u16,
    subarrays_per_bank: u16,
    groups_per_subarray: usize,
    rng: &mut Rng,
) -> Vec<GroupPick> {
    let decoder = RowDecoder::for_subarray_rows(geometry.rows_per_subarray);
    let banks = banks.min(geometry.banks);
    let subarrays_per_bank = subarrays_per_bank.min(geometry.subarrays_per_bank);
    let mut out = Vec::with_capacity(
        usize::from(banks) * usize::from(subarrays_per_bank) * groups_per_subarray,
    );
    for b in 0..banks {
        // Randomly select distinct subarrays in this bank.
        let mut sa_ids: Vec<u16> = (0..geometry.subarrays_per_bank).collect();
        partial_shuffle(&mut sa_ids, subarrays_per_bank as usize, rng);
        for &sa in sa_ids.iter().take(subarrays_per_bank as usize) {
            let mut found = 0;
            let mut attempts = 0;
            while found < groups_per_subarray && attempts < groups_per_subarray * 50 {
                attempts += 1;
                let drawn = draw_pick(
                    &decoder,
                    geometry,
                    BankId::new(b),
                    SubarrayId::new(sa),
                    n,
                    rng,
                );
                if let Some(pick) = drawn {
                    out.push(pick);
                    found += 1;
                }
            }
        }
    }
    out
}

/// Tiles an entire subarray with maximal (32-row) simultaneous-activation
/// groups: the union of the returned groups' rows covers every row of the
/// subarray exactly once.
///
/// Construction: each predecoder's outputs pair up under XOR with its
/// all-ones mask (`out ↔ out ^ (outputs − 1)`); picking one representative
/// per pair class in every predecoder and targeting `R_S = R_F` with all
/// fields flipped yields a group that covers exactly the Cartesian product
/// of those pairs. Iterating over all class combinations tiles the
/// subarray — this is how a Multi-RowCopy wipe covers a whole bank
/// (§8.2).
pub fn tile_groups(geometry: &Geometry, bank: BankId, subarray: SubarrayId) -> Vec<GroupSpec> {
    let rows_in_sa = geometry.rows_per_subarray;
    let decoder = RowDecoder::for_subarray_rows(rows_in_sa);
    // Valid output values per predecoder field (non-power-of-two
    // subarrays only populate a prefix of the most-significant field).
    let valid: Vec<u32> = decoder
        .groups()
        .iter()
        .map(|g| g.outputs().min(rows_in_sa.div_ceil(1 << g.shift)))
        .collect();
    // Pair consecutive valid outputs: (0,1), (2,3), …; an odd leftover
    // output forms a singleton class whose groups simply do not flip this
    // field (half-size groups, still a perfect tiling).
    let classes: Vec<u32> = valid.iter().map(|v| v.div_ceil(2)).collect();
    let mut out = Vec::new();
    let mut idx = vec![0u32; classes.len()];
    loop {
        let mut local_f = 0u32;
        let mut local_s = 0u32;
        for (i, g) in decoder.groups().iter().enumerate() {
            let rep = 2 * idx[i];
            let alt = if rep + 1 < valid[i] { rep + 1 } else { rep };
            local_f |= rep << g.shift;
            local_s |= alt << g.shift;
        }
        debug_assert!(local_f < rows_in_sa && local_s < rows_in_sa);
        let rows = decoder.simultaneous_rows(local_f, local_s);
        if !rows.is_empty() {
            out.push(GroupSpec {
                bank,
                subarray,
                r_f: geometry.join_row(subarray, local_f),
                r_s: geometry.join_row(subarray, local_s),
                local_rows: rows,
            });
        }
        // Mixed-radix increment over the class counts.
        let mut i = 0;
        loop {
            if i == idx.len() {
                return out;
            }
            idx[i] += 1;
            if idx[i] < classes[i] {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

/// Fisher–Yates for the first `k` positions only.
fn partial_shuffle<T>(items: &mut [T], k: usize, rng: &mut Rng) {
    let k = k.min(items.len());
    for i in 0..k {
        let j = rng.gen_range(i..items.len());
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::default()
    }

    #[test]
    fn random_group_has_requested_size() {
        let mut rng = Rng::seed_from_u64(2);
        for n in [1u32, 2, 4, 8, 16, 32] {
            let g = random_group(&geom(), BankId::new(0), SubarrayId::new(0), n, &mut rng)
                .expect("512-row subarray always hosts power-of-two groups");
            assert_eq!(g.n_rows(), n as usize);
            // R_F and R_S are inside the subarray's bank-address window.
            let (sa_f, lf) = geom().split_row(g.r_f).unwrap();
            let (sa_s, _) = geom().split_row(g.r_s).unwrap();
            assert_eq!(sa_f.raw(), 0);
            assert_eq!(sa_s.raw(), 0);
            assert!(g.local_rows.contains(&lf));
        }
    }

    #[test]
    fn sample_population_size() {
        let mut rng = Rng::seed_from_u64(3);
        let groups = sample_groups(&geom(), 8, 2, 3, 5, &mut rng);
        assert_eq!(groups.len(), 2 * 3 * 5);
        // All groups have 8 rows.
        assert!(groups.iter().all(|g| g.n_rows() == 8));
        assert!(groups.iter().all(|g| g.resolve(&geom()).n_rows() == 8));
        // Both banks represented.
        assert!(groups.iter().any(|g| g.bank == BankId::new(0)));
        assert!(groups.iter().any(|g| g.bank == BankId::new(1)));
    }

    #[test]
    fn a_pick_is_ten_bytes() {
        assert_eq!(std::mem::size_of::<GroupPick>(), 10);
    }

    #[test]
    fn the_top_row_decides_whether_a_product_is_whole() {
        // Every (R_F, R_S) pair of the tested subarray heights: the
        // product of the two addresses keeps all of its 2^d rows exactly
        // when its top row exists.
        for rows in [512u32, 640, 1024] {
            let decoder = RowDecoder::for_subarray_rows(rows);
            for r_f in 0..rows {
                for r_s in 0..rows {
                    let whole = decoder.simultaneous_rows(r_f, r_s).len()
                        == 1 << decoder.differing_groups(r_f, r_s);
                    assert_eq!(
                        top_row(&decoder, r_f, r_s) < rows,
                        whole,
                        "({r_f}, {r_s}) of {rows}"
                    );
                }
            }
        }
    }

    /// [`sample_groups`]'s loop, drawing every group through
    /// [`random_group`] (a fresh decoder per draw).
    fn sample_by_random_group(
        geometry: &Geometry,
        n: u32,
        banks: u16,
        subarrays_per_bank: u16,
        groups_per_subarray: usize,
        rng: &mut Rng,
    ) -> Vec<GroupSpec> {
        let mut out = Vec::new();
        for b in 0..banks.min(geometry.banks) {
            let per_bank = subarrays_per_bank.min(geometry.subarrays_per_bank) as usize;
            let mut sa_ids: Vec<u16> = (0..geometry.subarrays_per_bank).collect();
            partial_shuffle(&mut sa_ids, per_bank, rng);
            for &sa in &sa_ids[..per_bank] {
                let mut found = 0;
                for _ in 0..groups_per_subarray * 50 {
                    if found == groups_per_subarray {
                        break;
                    }
                    let drawn = random_group(geometry, BankId::new(b), SubarrayId::new(sa), n, rng);
                    if let Some(g) = drawn {
                        out.push(g);
                        found += 1;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn sample_groups_equals_a_random_group_loop() {
        use simra_dram::VendorProfile;
        let profiles = [
            VendorProfile::mfr_h_m_die(),
            VendorProfile::mfr_h_m_die_640(),
            VendorProfile::mfr_m_e_die(),
        ];
        for profile in &profiles {
            let geometry = profile.geometry;
            for n in [2u32, 4, 8, 16, 32] {
                for seed in [1u64, 2, 3] {
                    let mut shared = Rng::seed_from_u64(seed);
                    let mut fresh = Rng::seed_from_u64(seed);
                    let a: Vec<GroupSpec> = sample_groups(&geometry, n, 2, 3, 4, &mut shared)
                        .iter()
                        .map(|pick| pick.resolve(&geometry))
                        .collect();
                    let b = sample_by_random_group(&geometry, n, 2, 3, 4, &mut fresh);
                    let at = (geometry.rows_per_subarray, n, seed);
                    assert_eq!(a, b, "{at:?}");
                    assert!(!a.is_empty(), "{at:?}");
                    assert_eq!(shared.gen::<u64>(), fresh.gen::<u64>(), "{at:?}");
                }
            }
        }
    }

    /// FNV-1a digests of [`sample_groups`]' paper population (16 banks ×
    /// 3 subarrays × 100 groups) and the stream's next draw, per subarray
    /// height (512, 640, 1 024 rows) and N ∈ {2, 4, 8, 16, 32}.
    const PAPER_POPULATION: [[u64; 5]; 3] = [
        [
            0x636e_cc00_94c8_9b4b,
            0xbaff_7d30_7e1d_223e,
            0x1652_65dd_20d3_1a1b,
            0xa7b4_ed90_7541_5ec0,
            0xf54b_603a_da44_9345,
        ],
        [
            0xf742_d766_7caa_22f5,
            0x3558_0447_c319_c1c2,
            0x1f49_c0f8_a499_0131,
            0xe3ec_9a77_330b_2fdc,
            0x1759_1bc3_aac4_9b99,
        ],
        [
            0x2859_f54f_95c2_095b,
            0xc909_bd74_5908_1e98,
            0xdc71_f242_ea71_0aff,
            0x9014_0ca6_ef19_6918,
            0x9ec5_6f07_7968_dd1d,
        ],
    ];

    #[test]
    fn the_paper_population_draw_is_pinned() {
        use simra_dram::VendorProfile;
        let profiles = [
            VendorProfile::mfr_h_m_die(),
            VendorProfile::mfr_h_m_die_640(),
            VendorProfile::mfr_m_e_die(),
        ];
        let mut got = [[0u64; 5]; 3];
        for (profile, got) in profiles.iter().zip(&mut got) {
            let geometry = profile.geometry;
            for (n, got) in [2u32, 4, 8, 16, 32].into_iter().zip(got) {
                let mut rng = Rng::seed_from_u64(u64::from(geometry.rows_per_subarray) << 8 | 0x5A);
                let groups = sample_groups(&geometry, n, 16, 3, 100, &mut rng);
                assert_eq!(
                    groups.len(),
                    4_800,
                    "{} rows, N = {n}",
                    geometry.rows_per_subarray
                );
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                let mut fold = |word: u64| {
                    for byte in word.to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
                    }
                };
                for g in groups.iter().map(|pick| pick.resolve(&geometry)) {
                    fold(u64::from(g.bank.raw()) << 16 | u64::from(g.subarray.raw()));
                    fold(u64::from(g.r_f.raw()) << 32 | u64::from(g.r_s.raw()));
                    g.local_rows.iter().for_each(|&r| fold(u64::from(r)));
                }
                fold(rng.next_u64());
                *got = digest;
            }
        }
        assert_eq!(got, PAPER_POPULATION, "{got:#018x?}");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a = sample_groups(&geom(), 4, 1, 1, 3, &mut Rng::seed_from_u64(9));
        let b = sample_groups(&geom(), 4, 1, 1, 3, &mut Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn groups_vary_across_draws() {
        let mut rng = Rng::seed_from_u64(4);
        let a = random_group(&geom(), BankId::new(0), SubarrayId::new(0), 16, &mut rng).unwrap();
        let b = random_group(&geom(), BankId::new(0), SubarrayId::new(0), 16, &mut rng).unwrap();
        assert_ne!(a, b, "two random draws should differ");
    }

    #[test]
    fn non_power_of_two_subarray_still_samples() {
        // 640 rows populate whole 128-row blocks of the top predecoder;
        // 600 rows populate part of one, so there a drawn R_S can exist
        // while a row of its product does not, and only the top-row rule
        // rejects the draw.
        for rows in [600u32, 640] {
            let mut geometry = geom();
            geometry.rows_per_subarray = rows;
            for n in [2u32, 4, 8, 16, 32] {
                let mut rng = Rng::seed_from_u64(5);
                let groups = sample_groups(&geometry, n, 2, 3, 50, &mut rng);
                assert!(!groups.is_empty(), "{rows} rows, N = {n}");
                for g in groups.iter().map(|pick| pick.resolve(&geometry)) {
                    assert_eq!(g.n_rows(), n as usize, "{rows} rows: {g:?}");
                    assert!(g.local_rows.iter().all(|r| *r < rows));
                }
            }
        }
        // A 128-row decoder has four predecoders: too few for 32 rows.
        let mut short = geom();
        short.rows_per_subarray = 128;
        let mut rng = Rng::seed_from_u64(5);
        assert!(sample_groups(&short, 32, 1, 1, 4, &mut rng).is_empty());
        assert_eq!(sample_groups(&short, 16, 1, 1, 4, &mut rng).len(), 4);
    }

    #[test]
    fn tiling_covers_the_subarray_exactly_once() {
        let g = geom();
        let groups = tile_groups(&g, BankId::new(0), SubarrayId::new(1));
        assert_eq!(groups.len(), 16, "512 rows / 32-row groups");
        let mut covered = vec![0u32; g.rows_per_subarray as usize];
        for spec in &groups {
            assert_eq!(spec.n_rows(), 32);
            for &r in &spec.local_rows {
                covered[r as usize] += 1;
            }
        }
        assert!(covered.iter().all(|c| *c == 1), "every row exactly once");
    }

    #[test]
    fn tiling_covers_micron_1024_row_subarrays() {
        let mut g = geom();
        g.rows_per_subarray = 1024;
        let groups = tile_groups(&g, BankId::new(0), SubarrayId::new(0));
        assert_eq!(groups.len(), 32);
        let total: usize = groups.iter().map(GroupSpec::n_rows).sum();
        assert_eq!(total, 1024);
    }

    #[test]
    fn tiling_covers_non_power_of_two_subarrays() {
        let mut g = geom();
        g.rows_per_subarray = 640;
        let groups = tile_groups(&g, BankId::new(0), SubarrayId::new(0));
        let mut covered = vec![0u32; 640];
        for spec in &groups {
            for &r in &spec.local_rows {
                covered[r as usize] += 1;
            }
        }
        assert!(
            covered.iter().all(|c| *c == 1),
            "640-row subarray tiled without overlap"
        );
    }

    #[test]
    fn local_r_f_matches_split() {
        let mut rng = Rng::seed_from_u64(6);
        let g = random_group(&geom(), BankId::new(3), SubarrayId::new(2), 4, &mut rng).unwrap();
        let lf = g.local_r_f(&geom());
        assert!(g.local_rows.contains(&lf));
    }
}
