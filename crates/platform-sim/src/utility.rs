//! The pair-utility model `u_{r,b}`.
//!
//! In production the paper takes `u_{r,b}` from a deployed learned model
//! (XGBoost over historical assignments, Sec. III) and treats it as
//! algorithm *input*. We substitute a deterministic generative model:
//! broker quality × client intent × preference affinity, lightly
//! perturbed by pair-specific noise. The absolute values are calibrated
//! to the sign-up-rate ranges reported in Fig. 2 (roughly 0.02–0.3).

use crate::broker::{BrokerProfile, PREF_DIM};
use crate::panel::BrokerPanel;
use crate::request::Request;

/// Deterministic utility model (predicted sign-up probability of a
/// request/broker pair under normal load).
#[derive(Clone, Debug)]
pub struct UtilityModel {
    /// Weight of the preference-affinity term vs. raw broker quality.
    affinity_weight: f64,
    /// Seed for the pair-noise hash.
    noise_seed: u64,
    /// Amplitude of pair-specific noise.
    noise_amp: f64,
}

impl Default for UtilityModel {
    fn default() -> Self {
        Self { affinity_weight: 0.35, noise_seed: 0x5EED, noise_amp: 0.03 }
    }
}

impl UtilityModel {
    /// Create a model with explicit parameters.
    pub fn new(affinity_weight: f64, noise_seed: u64, noise_amp: f64) -> Self {
        assert!((0.0..=1.0).contains(&affinity_weight));
        Self { affinity_weight, noise_seed, noise_amp }
    }

    /// Predicted sign-up probability `u_{r,b} ∈ [0, 1]`.
    pub fn utility(&self, request: &Request, broker: &BrokerProfile) -> f64 {
        let dot: f64 = request.attrs.iter().zip(&broker.preference).map(|(a, b)| a * b).sum();
        self.pair(dot, broker.quality, request.intent, request.id as u64, broker.id as u64)
    }

    /// One row of the model over a packed panel: `out[j]` is
    /// [`Self::utility`] of `request` against column `j`'s broker, bit
    /// for bit. The loop body is compiled twice, generically and for
    /// AVX2, and the build is picked per call from the running CPU;
    /// both give the same bits (DESIGN.md §16, "The scoring panel").
    ///
    /// # Panics
    /// When the panel is not packed, the request's attribute vector
    /// does not have `PREF_DIM` components, or `out` is not one slot
    /// per panel column.
    pub(crate) fn utility_row(&self, request: &Request, panel: &BrokerPanel, out: &mut [f64]) {
        assert!(panel.is_packed(), "utility_row needs a packed panel");
        let attrs: &[f64; PREF_DIM] = request
            .attrs
            .as_slice()
            .try_into()
            .expect("request attrs must have PREF_DIM components");
        assert_eq!(out.len(), panel.len(), "one output slot per panel column");
        let rid = request.id as u64;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `row_avx2` only differs from the generic build of
            // `row_body` below in being compiled for AVX2, which the
            // running CPU was just detected to support.
            unsafe { self.row_avx2(attrs, request.intent, rid, panel, out) };
            return;
        }
        self.row_body(attrs, request.intent, rid, panel, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn row_avx2(
        &self,
        attrs: &[f64; PREF_DIM],
        intent: f64,
        rid: u64,
        panel: &BrokerPanel,
        out: &mut [f64],
    ) {
        self.row_body(attrs, intent, rid, panel, out);
    }

    /// The one row loop both builds share: contiguous planes, no
    /// gather; every plane is cut to `out.len()` up front, so the
    /// vectorised body carries no bounds checks.
    #[inline(always)]
    fn row_body(
        &self,
        attrs: &[f64; PREF_DIM],
        intent: f64,
        rid: u64,
        panel: &BrokerPanel,
        out: &mut [f64],
    ) {
        let (pref, quality, id) = panel.planes(out.len());
        for (j, slot) in out.iter_mut().enumerate() {
            // Same `Sum` fold, in the same order, as the zip in `utility`.
            let dot: f64 = (0..PREF_DIM).map(|k| attrs[k] * pref[k][j]).sum();
            *slot = self.pair(dot, quality[j], intent, rid, id[j]);
        }
    }

    /// The per-pair model, shared by every scoring site: broker quality
    /// × client intent × preference affinity (`dot` is the request ·
    /// preference inner product), plus pair noise.
    #[inline(always)]
    fn pair(&self, dot: f64, quality: f64, intent: f64, request_id: u64, broker_id: u64) -> f64 {
        // Cosine affinity in [0,1].
        let affinity = 0.5 * (dot + 1.0);
        let blended = quality * (1.0 - self.affinity_weight + self.affinity_weight * affinity);
        let noise = self.pair_noise(request_id, broker_id);
        (intent * blended + noise).clamp(0.0, 1.0)
    }

    /// Deterministic pair noise in `[-noise_amp, +noise_amp]` from a
    /// splitmix-style hash — reproducible without storing an RNG stream
    /// per pair. The key ORs the broker id into the shifted request id
    /// (ids past 2^32 overlap the request bits; kept for stable values).
    #[inline(always)]
    fn pair_noise(&self, request_id: u64, broker_id: u64) -> f64 {
        let mut z = self
            .noise_seed
            .wrapping_add(request_id << 32 | broker_id)
            .wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        (2.0 * unit - 1.0) * self.noise_amp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Platform;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The model as it was before the scoring panel: one profile at a
    /// time, ids as `usize`. Every kernel is held to it bit for bit.
    fn reference(m: &UtilityModel, request: &Request, broker: &BrokerProfile) -> f64 {
        let dot: f64 = request.attrs.iter().zip(&broker.preference).map(|(a, b)| a * b).sum();
        let affinity = 0.5 * (dot + 1.0);
        let blended = broker.quality * (1.0 - m.affinity_weight + m.affinity_weight * affinity);
        let noise = reference_noise(m, request.id, broker.id);
        (request.intent * blended + noise).clamp(0.0, 1.0)
    }

    fn reference_noise(m: &UtilityModel, request_id: usize, broker_id: usize) -> f64 {
        let mut z = m
            .noise_seed
            .wrapping_add((request_id as u64) << 32 | broker_id as u64)
            .wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * m.noise_amp
    }

    /// An id from one of the ranges the hash key treats differently:
    /// small, anywhere in `0..=u32::MAX`, its top end, or past 2^32
    /// (where the OR overlaps the shifted request id).
    fn any_id(rng: &mut StdRng) -> usize {
        match rng.gen_range(0..4u8) {
            0 => rng.gen_range(0..10_000usize),
            1 => rng.gen_range(0..=u32::MAX) as usize,
            2 => u32::MAX as usize - rng.gen_range(0..4usize),
            _ => rng.gen::<u64>() as usize,
        }
    }

    /// A `PREF_DIM` vector with some components replaced by ±0.0.
    fn with_signed_zeros(rng: &mut StdRng) -> Vec<f64> {
        (0..PREF_DIM)
            .map(|_| match rng.gen_range(0..4u8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    fn random_world(seed: u64, cols: usize) -> (UtilityModel, Vec<Request>, Vec<BrokerProfile>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = UtilityModel::new(rng.gen_range(0.0..1.0), rng.gen(), rng.gen_range(0.0..0.1));
        let mut brokers = BrokerProfile::generate(&mut rng, cols);
        for b in &mut brokers {
            b.id = any_id(&mut rng);
            if rng.gen_range(0..3u8) == 0 {
                b.preference = with_signed_zeros(&mut rng);
            }
        }
        let requests = (0..4)
            .map(|_| {
                let id = any_id(&mut rng);
                let mut r = Request::sample(&mut rng, id, 0, 0);
                if rng.gen_range(0..2u8) == 0 {
                    r.attrs = with_signed_zeros(&mut rng);
                }
                r
            })
            .collect();
        (model, requests, brokers)
    }

    /// Every build of the row kernel over `panel`, checked cell by cell
    /// against the reference.
    fn check_kernels(
        m: &UtilityModel,
        request: &Request,
        brokers: &[BrokerProfile],
        panel: &BrokerPanel,
    ) -> Result<(), TestCaseError> {
        let attrs: &[f64; PREF_DIM] = request.attrs.as_slice().try_into().unwrap();
        let rid = request.id as u64;
        let mut builds: Vec<(&str, Vec<f64>)> = Vec::new();
        let mut out = vec![f64::NAN; panel.len()];
        m.row_body(attrs, request.intent, rid, panel, &mut out);
        builds.push(("generic", out.clone()));
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was detected just above.
            unsafe { m.row_avx2(attrs, request.intent, rid, panel, &mut out) };
            builds.push(("avx2", out.clone()));
        }
        m.utility_row(request, panel, &mut out);
        builds.push(("dispatched", out));
        for (name, row) in &builds {
            for (j, &b) in panel.index().iter().enumerate() {
                let want = reference(m, request, &brokers[b]);
                prop_assert_eq!(
                    row[j].to_bits(),
                    want.to_bits(),
                    "{} kernel, column {} (broker {}): {} vs reference {}",
                    name,
                    j,
                    b,
                    row[j],
                    want
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The generic and AVX2 builds of the row kernel, over the full
        /// panel and over packed subsets, equal the reference bit for
        /// bit — ids past 2^32, signed-zero attributes included.
        #[test]
        fn row_kernels_match_reference_bit_for_bit(seed in 0u64..u64::MAX, cols in 1usize..96) {
            let (m, requests, brokers) = random_world(seed, cols);
            let full = BrokerPanel::new(&brokers);
            prop_assert!(full.is_packed());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC015);
            let subset: Vec<usize> = (0..cols).filter(|_| rng.gen_range(0..3u8) != 0).collect();
            let mut packed = BrokerPanel::default();
            packed.pack_from(&full, &subset);
            prop_assert_eq!(packed.index(), subset.as_slice());
            for request in &requests {
                check_kernels(&m, request, &brokers, &full)?;
                check_kernels(&m, request, &brokers, &packed)?;
            }
        }

        /// A preference (or request) that is not `PREF_DIM` long cannot
        /// be packed; the platform's row falls back to the point-wise
        /// formula, still equal to the reference.
        #[test]
        fn misshapen_preferences_fall_back_to_point_wise(seed in 0u64..u64::MAX, cols in 1usize..48) {
            let (m, mut requests, mut brokers) = random_world(seed, cols);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11);
            let odd = rng.gen_range(0..cols);
            let len = [1, PREF_DIM - 1, PREF_DIM + 1][rng.gen_range(0..3usize)];
            brokers[odd].preference = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            requests[0].attrs.push(0.5);
            let platform = Platform::new(brokers.clone(), m.clone());
            prop_assert!(!platform.panel().is_packed());
            let mut out = vec![0.0; cols];
            for (r, request) in requests.iter().enumerate() {
                platform.utility_row_into(r, request, platform.panel(), &mut out);
                for (b, (&got, broker)) in out.iter().zip(&brokers).enumerate() {
                    let want = reference(&m, request, broker);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} broker {}", r, b);
                }
            }
        }
    }

    fn setup() -> (Vec<Request>, Vec<BrokerProfile>) {
        let mut rng = StdRng::seed_from_u64(42);
        let brokers = BrokerProfile::generate(&mut rng, 40);
        let requests: Vec<Request> = (0..10).map(|i| Request::sample(&mut rng, i, 0, 0)).collect();
        (requests, brokers)
    }

    #[test]
    fn utilities_in_unit_interval() {
        let (reqs, brokers) = setup();
        let m = UtilityModel::default();
        for r in &reqs {
            for b in &brokers {
                let u = m.utility(r, b);
                assert!((0.0..=1.0).contains(&u), "u = {u}");
            }
        }
    }

    #[test]
    fn utility_is_deterministic() {
        let (reqs, brokers) = setup();
        let m = UtilityModel::default();
        assert_eq!(m.utility(&reqs[0], &brokers[0]), m.utility(&reqs[0], &brokers[0]));
    }

    #[test]
    fn higher_quality_brokers_score_higher_on_average() {
        let (reqs, mut brokers) = setup();
        brokers.sort_by(|a, b| a.quality.partial_cmp(&b.quality).unwrap());
        let m = UtilityModel::default();
        let avg = |b: &BrokerProfile| -> f64 {
            reqs.iter().map(|r| m.utility(r, b)).sum::<f64>() / reqs.len() as f64
        };
        let low = avg(&brokers[0]);
        let high = avg(brokers.last().unwrap());
        assert!(high > low, "high-quality {high} vs low-quality {low}");
    }

    #[test]
    fn pair_noise_is_bounded_and_varied() {
        let m = UtilityModel::default();
        let mut distinct = std::collections::HashSet::new();
        for r in 0..50 {
            for b in 0..50 {
                let n = m.pair_noise(r, b);
                assert!(n.abs() <= 0.03 + 1e-12);
                distinct.insert((n * 1e12) as i64);
            }
        }
        assert!(distinct.len() > 1000, "noise should vary per pair");
    }
}
