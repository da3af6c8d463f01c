//! The platform environment loop.
//!
//! [`Platform`] is the "unknown environment" the bandits interact with
//! (Sec. V-B): assignment algorithms hand it per-batch matchings, it
//! executes them against the ground-truth broker dynamics (overload
//! degradation, fatigue), and at the end of each day it reveals the
//! `(x_b, w_b, s_b)` trial triples used as bandit feedback.

use crate::broker::{status_vector, BrokerProfile, BrokerState, PREF_DIM};
use crate::capacity_model::realized_signup_probability;
use crate::dataset::Dataset;
use crate::faults::FaultPlan;
use crate::panel::BrokerPanel;
use crate::request::Request;
use crate::utility::UtilityModel;
use matching::UtilityMatrix;

/// One broker-day observation: the paper's trial triple `(x, w, s)`.
#[derive(Clone, Debug)]
pub struct TrialTriple {
    /// Broker index.
    pub broker: usize,
    /// Working status `x_b` captured at the *start* of the day (the
    /// context the capacity decision was made under).
    pub context: Vec<f64>,
    /// Requests served that day, `w_b`.
    pub workload: f64,
    /// Realised daily sign-up rate, `s_b`.
    pub signup_rate: f64,
}

/// Result of executing one batch assignment.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Realised utility (expected sign-ups after overload degradation).
    pub realized: f64,
    /// Predicted utility `Σ u_{r,b}` of the matched pairs (no
    /// degradation) — what a capacity-blind optimiser believes it got.
    pub predicted: f64,
    /// `(request_index_in_batch, broker_id)` pairs actually served.
    pub assignments: Vec<(usize, usize)>,
    /// Request indices whose assigned broker was offline (fault
    /// injection): the service failed and contributed no utility.
    pub failed: Vec<usize>,
    /// Realised utility per pair, aligned with `assignments`.
    pub pair_realized: Vec<f64>,
    /// Predicted utility per pair, aligned with `assignments`.
    pub pair_predicted: Vec<f64>,
}

/// End-of-day feedback: trials for every broker that served at least one
/// request.
#[derive(Clone, Debug, Default)]
pub struct DayFeedback {
    /// Trial triples of the day.
    pub trials: Vec<TrialTriple>,
    /// Total realised utility of the day.
    pub realized: f64,
}

/// Configuration of the client-appeal mechanism (Sec. VI-B discussion:
/// "Once a client is unsatisfied with the assigned broker, she/he can
/// appeal to the platform for another broker. The platform sets the
/// utility between the client and the assigned broker to 0, restores
/// the broker's workload, and chooses another broker in the next time
/// interval").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppealConfig {
    /// Probability that a client whose realised service quality fell
    /// below `threshold` appeals.
    pub probability: f64,
    /// Realised sign-up probability below which a client may appeal.
    pub threshold: f64,
}

impl Default for AppealConfig {
    fn default() -> Self {
        Self { probability: 0.5, threshold: 0.05 }
    }
}

/// A request whose client appealed: it must be re-offered in the next
/// batch, and the appealed broker is excluded for it.
#[derive(Clone, Debug)]
pub struct Appeal {
    /// The appealing request.
    pub request: Request,
    /// The broker the client rejected (its pair utility is now 0).
    pub rejected_broker: usize,
}

/// The simulated platform.
#[derive(Clone, Debug)]
pub struct Platform {
    brokers: Vec<BrokerProfile>,
    /// Scoring panel of `brokers`, built once: profiles never change.
    panel: BrokerPanel,
    states: Vec<BrokerState>,
    utility: UtilityModel,
    /// Status vectors captured when the current day began.
    day_start_status: Vec<Vec<f64>>,
    day_realized: f64,
    day_open: bool,
    /// Appeal mechanism, when enabled.
    appeals: Option<AppealConfig>,
    /// Appeals raised by the most recent batch, awaiting re-assignment.
    pending_appeals: Vec<Appeal>,
    /// Deterministic counter feeding the appeal coin-flips.
    appeal_draws: u64,
    /// Seeded fault schedule, when chaos injection is enabled.
    faults: Option<FaultPlan>,
    /// Days completed so far (the fault plan's day coordinate).
    day_index: usize,
    /// Batches executed within the current day (the fault plan's batch
    /// coordinate).
    batch_index: usize,
}

impl Platform {
    /// Build a platform over a broker population.
    pub fn new(brokers: Vec<BrokerProfile>, utility: UtilityModel) -> Self {
        let n = brokers.len();
        let states = vec![BrokerState::default(); n];
        let day_start_status =
            brokers.iter().zip(&states).map(|(p, s)| status_vector(p, s)).collect();
        Self {
            panel: BrokerPanel::new(&brokers),
            brokers,
            states,
            utility,
            day_start_status,
            day_realized: 0.0,
            day_open: false,
            appeals: None,
            pending_appeals: Vec::new(),
            appeal_draws: 0,
            faults: None,
            day_index: 0,
            batch_index: 0,
        }
    }

    /// Enable the client-appeal mechanism (disabled by default so the
    /// core experiments stay deterministic and paper-comparable).
    pub fn enable_appeals(&mut self, cfg: AppealConfig) {
        self.appeals = Some(cfg);
    }

    /// Appeals raised by the batches executed so far and not yet
    /// re-assigned. The caller (platform operator loop) should include
    /// these requests in the next batch via
    /// [`Platform::take_pending_appeals`].
    pub fn pending_appeals(&self) -> &[Appeal] {
        &self.pending_appeals
    }

    /// Drain the pending appeals for re-assignment in the next interval.
    pub fn take_pending_appeals(&mut self) -> Vec<Appeal> {
        std::mem::take(&mut self.pending_appeals)
    }

    /// Build from a dataset's broker population with the default utility
    /// model.
    pub fn from_dataset(ds: &Dataset) -> Self {
        Self::new(ds.brokers.clone(), UtilityModel::default())
    }

    /// Enable seeded fault injection (disabled by default so the core
    /// experiments stay deterministic and paper-comparable). From now
    /// on broker outages hit [`Platform::execute_batch`] and utility
    /// corruption hits [`Platform::utility_matrix`].
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The active fault plan, if chaos injection is enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Days completed so far (the fault schedule's day coordinate).
    pub fn day_index(&self) -> usize {
        self.day_index
    }

    /// Batches executed within the current day so far.
    pub fn batch_index(&self) -> usize {
        self.batch_index
    }

    /// Is broker `b` reachable for the *next* batch? Always true when
    /// fault injection is off.
    pub fn broker_online(&self, b: usize) -> bool {
        match &self.faults {
            Some(plan) => !plan.broker_offline(self.day_index, self.batch_index, b),
            None => true,
        }
    }

    /// Brokers reachable for the next batch.
    pub fn online_brokers(&self) -> Vec<usize> {
        (0..self.brokers.len()).filter(|&b| self.broker_online(b)).collect()
    }

    /// Number of brokers.
    pub fn num_brokers(&self) -> usize {
        self.brokers.len()
    }

    /// Broker profiles (read-only; algorithms may use observable fields
    /// but the latent `quality`/`true_capacity` are for the simulator and
    /// oracle baselines only).
    pub fn brokers(&self) -> &[BrokerProfile] {
        &self.brokers
    }

    /// Live broker state (workloads, fatigue).
    pub fn states(&self) -> &[BrokerState] {
        &self.states
    }

    /// The pair-utility model.
    pub fn utility_model(&self) -> &UtilityModel {
        &self.utility
    }

    /// Today's workload of broker `b` so far.
    pub fn workload_today(&self, b: usize) -> f64 {
        self.states[b].workload_today
    }

    /// Working status `x_b` as captured at the start of the current day.
    pub fn day_start_status(&self, b: usize) -> &[f64] {
        &self.day_start_status[b]
    }

    /// Open a new day: capture every broker's status vector. Must be
    /// called before the day's batches are executed.
    pub fn begin_day(&mut self) {
        assert!(!self.day_open, "begin_day called twice without end_day");
        for (i, (p, s)) in self.brokers.iter().zip(&self.states).enumerate() {
            self.day_start_status[i] = status_vector(p, s);
        }
        self.day_realized = 0.0;
        self.day_open = true;
        self.batch_index = 0;
    }

    /// Predicted utility matrix `u_{r,b}` for a batch (`requests ×
    /// all brokers`) — the algorithm-visible input of Def. 2.
    ///
    /// Under fault injection this is where utility corruption lands:
    /// the *observed* matrix may carry NaN/∞ entries while the ground
    /// truth used by [`Platform::execute_batch`] stays clean — exactly
    /// the upstream-feature-service failure mode.
    pub fn utility_matrix(&self, requests: &[Request]) -> UtilityMatrix {
        let mut m = UtilityMatrix::zeros(0, 0);
        self.utility_matrix_into(requests, &mut m);
        m
    }

    /// In-place [`Self::utility_matrix`]: refills `out`, reusing its
    /// allocation across batches.
    pub fn utility_matrix_into(&self, requests: &[Request], out: &mut UtilityMatrix) {
        // Every cell is written below; skip `reset`'s redundant
        // zero-fill (pure memory bandwidth on the hot path).
        out.reshape_for_overwrite(requests.len(), self.brokers.len());
        for (r, request) in requests.iter().enumerate() {
            self.utility_row_into(r, request, &self.panel, out.row_mut(r));
        }
    }

    /// One cell of [`Self::utility_matrix`]: the predicted utility of
    /// pairing batch row `row` (`request`) with broker `b`, including
    /// any injected corruption for that cell. Bit-identical to
    /// `utility_matrix_into(..)[row, b]`: the row kernel and this
    /// point-wise form evaluate the same per-pair formula, and both
    /// overwrite corrupted cells the same way.
    pub fn pair_utility(&self, row: usize, request: &Request, b: usize) -> f64 {
        let mut u = self.utility.utility(request, &self.brokers[b]);
        if let Some(plan) = &self.faults {
            if let Some(bad) = plan.corrupt_utility(self.day_index, self.batch_index, row, b) {
                u = bad;
            }
        }
        u
    }

    /// The population's scoring panel (column `j` = broker `j`). Pack a
    /// subset of it with [`BrokerPanel::pack_from`] to score only the
    /// brokers a matcher may use.
    pub fn panel(&self) -> &BrokerPanel {
        &self.panel
    }

    /// One *row* of [`Self::utility_matrix`] over the columns of
    /// `panel` — [`Self::panel`] or a subset packed from it:
    /// `out[j] = pair_utility(row, request, panel.index()[j])`, bit for
    /// bit. This is the row kernel behind the dense fill and the fused
    /// score+select kernel; the fault overlay runs after scoring.
    pub fn utility_row_into(
        &self,
        row: usize,
        request: &Request,
        panel: &BrokerPanel,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), panel.len());
        if panel.is_packed() && request.attrs.len() == PREF_DIM {
            self.utility.utility_row(request, panel, out);
        } else {
            for (slot, &b) in out.iter_mut().zip(panel.index()) {
                *slot = self.utility.utility(request, &self.brokers[b]);
            }
        }
        if let Some(plan) = &self.faults {
            for (slot, &b) in out.iter_mut().zip(panel.index()) {
                if let Some(bad) = plan.corrupt_utility(self.day_index, self.batch_index, row, b) {
                    *slot = bad;
                }
            }
        }
    }

    /// Execute one batch assignment: `assignment[r]` is the broker id
    /// serving request `r` of the batch, or `None` if unserved.
    ///
    /// Requests are processed in batch order; each service increments the
    /// broker's intra-day workload, so later requests of an overloaded
    /// broker realise less utility (Sec. II-A dynamics).
    ///
    /// # Panics
    /// Panics if called outside an open day or with a broker id out of
    /// range.
    pub fn execute_batch(
        &mut self,
        requests: &[Request],
        assignment: &[Option<usize>],
    ) -> BatchOutcome {
        assert!(self.day_open, "execute_batch outside an open day");
        assert_eq!(requests.len(), assignment.len(), "assignment length mismatch");
        let mut out = BatchOutcome::default();
        for (r, slot) in assignment.iter().enumerate() {
            let Some(b) = *slot else { continue };
            assert!(b < self.brokers.len(), "broker id {b} out of range");
            // A request routed to a dropped-out broker fails outright:
            // no service, no workload, no utility.
            if !self.broker_online(b) {
                out.failed.push(r);
                continue;
            }
            let u = self.utility.utility(&requests[r], &self.brokers[b]);
            let realized = realized_signup_probability(u, &self.brokers[b], &self.states[b]);
            // Client appeal (Sec. VI-B): a very poorly served client may
            // reject the broker — the pair contributes nothing, the
            // broker's workload is restored, and the request re-enters
            // the queue for the next interval.
            if let Some(cfg) = self.appeals {
                if realized < cfg.threshold && self.appeal_coin(cfg.probability) {
                    self.pending_appeals
                        .push(Appeal { request: requests[r].clone(), rejected_broker: b });
                    continue;
                }
            }
            let st = &mut self.states[b];
            st.workload_today += 1.0;
            st.realized_today += realized;
            out.predicted += u;
            out.realized += realized;
            out.assignments.push((r, b));
            out.pair_realized.push(realized);
            out.pair_predicted.push(u);
        }
        self.day_realized += out.realized;
        self.batch_index += 1;
        out
    }

    /// Deterministic Bernoulli draw for the appeal mechanism (seeded by
    /// the draw counter so runs stay reproducible).
    fn appeal_coin(&mut self, p: f64) -> bool {
        self.appeal_draws += 1;
        let mut z = self.appeal_draws.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Utility matrix for a batch that contains re-offered (appealed)
    /// requests: the rejected broker's utility is zeroed for its
    /// appealing request, per the Sec. VI-B policy.
    pub fn utility_matrix_with_appeals(
        &self,
        requests: &[Request],
        appeals: &[Appeal],
    ) -> matching::UtilityMatrix {
        let mut m = self.utility_matrix(requests);
        for appeal in appeals {
            for (r, req) in requests.iter().enumerate() {
                if req.id == appeal.request.id {
                    m.set(r, appeal.rejected_broker, 0.0);
                }
            }
        }
        m
    }

    /// Close the day: rolls every broker's state forward and returns the
    /// trial triples of all brokers that served at least one request.
    pub fn end_day(&mut self) -> DayFeedback {
        assert!(self.day_open, "end_day without begin_day");
        let mut fb = DayFeedback { realized: self.day_realized, ..Default::default() };
        for (i, (p, s)) in self.brokers.iter().zip(self.states.iter_mut()).enumerate() {
            let context = std::mem::take(&mut self.day_start_status[i]);
            let (w, rate) = s.end_day(p);
            if let Some(signup_rate) = rate {
                fb.trials.push(TrialTriple { broker: i, context, workload: w, signup_rate });
            }
        }
        // Refresh statuses for callers that inspect between days.
        for (i, (p, s)) in self.brokers.iter().zip(&self.states).enumerate() {
            self.day_start_status[i] = status_vector(p, s);
        }
        self.day_open = false;
        self.day_index += 1;
        fb
    }

    /// Draw counter of the appeal mechanism (checkpointed so restored
    /// runs replay the same appeal coin stream).
    pub fn appeal_draws(&self) -> u64 {
        self.appeal_draws
    }

    /// Restore broker state at a day boundary (checkpoint restore).
    /// Recomputes the start-of-day status vectors from the restored
    /// states, exactly as [`Platform::end_day`] leaves them.
    ///
    /// # Panics
    /// Panics if called mid-day or with a state count that does not
    /// match the broker population.
    pub fn restore_day_boundary(
        &mut self,
        states: Vec<BrokerState>,
        day_index: usize,
        appeal_draws: u64,
    ) {
        assert!(!self.day_open, "cannot restore into an open day");
        assert_eq!(states.len(), self.brokers.len(), "broker state count mismatch");
        self.states = states;
        self.day_index = day_index;
        self.appeal_draws = appeal_draws;
        self.pending_appeals.clear();
        self.day_realized = 0.0;
        self.batch_index = 0;
        for (i, (p, s)) in self.brokers.iter().zip(&self.states).enumerate() {
            self.day_start_status[i] = status_vector(p, s);
        }
    }

    /// Oracle access to a broker's fatigue-adjusted capacity today —
    /// used by the omniscient baseline and in tests, never by the
    /// algorithms under evaluation.
    pub fn oracle_effective_capacity(&self, b: usize) -> f64 {
        self.states[b].effective_capacity(&self.brokers[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyntheticConfig;

    fn small_world() -> (Platform, Dataset) {
        let cfg = SyntheticConfig {
            num_brokers: 20,
            num_requests: 200,
            days: 2,
            imbalance: 0.25, // 5 per batch
            seed: 21,
        };
        let ds = Dataset::synthetic(&cfg);
        let p = Platform::from_dataset(&ds);
        (p, ds)
    }

    #[test]
    fn batch_execution_accumulates_workload() {
        let (mut p, ds) = small_world();
        p.begin_day();
        let batch = &ds.days[0][0];
        let assignment: Vec<Option<usize>> =
            (0..batch.requests.len()).map(|i| Some(i % 3)).collect();
        let out = p.execute_batch(&batch.requests, &assignment);
        assert_eq!(out.assignments.len(), batch.requests.len());
        let served: f64 = (0..3).map(|b| p.workload_today(b)).sum();
        assert_eq!(served, batch.requests.len() as f64);
        assert!(out.realized > 0.0 && out.realized <= out.predicted + 1e-12);
    }

    #[test]
    fn none_slots_are_skipped() {
        let (mut p, ds) = small_world();
        p.begin_day();
        let batch = &ds.days[0][0];
        let assignment = vec![None; batch.requests.len()];
        let out = p.execute_batch(&batch.requests, &assignment);
        assert_eq!(out.assignments.len(), 0);
        assert_eq!(out.realized, 0.0);
    }

    #[test]
    fn overloading_one_broker_degrades_realization() {
        let (mut p, ds) = small_world();
        p.begin_day();
        // Route every request of the day to broker 0.
        let mut total_pred = 0.0;
        let mut total_real = 0.0;
        for batch in &ds.days[0] {
            let assignment = vec![Some(0); batch.requests.len()];
            let out = p.execute_batch(&batch.requests, &assignment);
            total_pred += out.predicted;
            total_real += out.realized;
        }
        // ~100 requests into a ≤70-capacity broker must degrade.
        assert!(total_real < 0.95 * total_pred, "realized {total_real} vs predicted {total_pred}");
    }

    #[test]
    fn end_day_emits_trials_for_active_brokers_only() {
        let (mut p, ds) = small_world();
        p.begin_day();
        let batch = &ds.days[0][0];
        let assignment: Vec<Option<usize>> = (0..batch.requests.len()).map(|_| Some(7)).collect();
        p.execute_batch(&batch.requests, &assignment);
        let fb = p.end_day();
        assert_eq!(fb.trials.len(), 1);
        assert_eq!(fb.trials[0].broker, 7);
        assert_eq!(fb.trials[0].workload, batch.requests.len() as f64);
        assert!(fb.trials[0].signup_rate > 0.0);
        assert_eq!(fb.trials[0].context.len(), crate::broker::STATUS_DIM);
    }

    #[test]
    #[should_panic(expected = "outside an open day")]
    fn execute_requires_open_day() {
        let (mut p, ds) = small_world();
        let batch = &ds.days[0][0];
        p.execute_batch(&batch.requests, &vec![None; batch.requests.len()]);
    }

    #[test]
    #[should_panic(expected = "begin_day called twice")]
    fn double_begin_day_panics() {
        let (mut p, _) = small_world();
        p.begin_day();
        p.begin_day();
    }

    #[test]
    fn day_cycle_resets_workloads() {
        let (mut p, ds) = small_world();
        p.begin_day();
        let batch = &ds.days[0][0];
        p.execute_batch(&batch.requests, &vec![Some(0); batch.requests.len()]);
        p.end_day();
        assert_eq!(p.workload_today(0), 0.0);
        // Next day can open.
        p.begin_day();
        assert_eq!(p.workload_today(0), 0.0);
    }

    #[test]
    fn utility_matrix_shape() {
        let (p, ds) = small_world();
        let m = p.utility_matrix(&ds.days[0][0].requests);
        assert_eq!(m.rows(), ds.days[0][0].requests.len());
        assert_eq!(m.cols(), 20);
    }

    /// The dense fill, the panel row (full and packed subset) and the
    /// point-wise `pair_utility` are one model: under an armed fault
    /// plan that corrupts about half the cells, they agree cell for
    /// cell, bit for bit, corrupted cells included.
    #[test]
    fn dense_fill_panel_row_and_pair_utility_agree_under_faults() {
        use crate::faults::FaultConfig;
        let (mut p, ds) = small_world();
        p.enable_faults(FaultPlan::new(FaultConfig {
            seed: 4,
            utility_corruption: 1.0,
            corruption_density: 0.5,
            ..FaultConfig::default()
        }));
        p.begin_day();
        let requests = &ds.days[0][0].requests;
        let dense = p.utility_matrix(requests);
        let subset: Vec<usize> = (0..p.num_brokers()).filter(|b| b % 3 != 1).collect();
        let mut packed = BrokerPanel::default();
        packed.pack_from(p.panel(), &subset);
        let mut full_row = vec![0.0; p.num_brokers()];
        let mut sub_row = vec![0.0; subset.len()];
        let mut corrupted = 0;
        for (r, request) in requests.iter().enumerate() {
            p.utility_row_into(r, request, p.panel(), &mut full_row);
            p.utility_row_into(r, request, &packed, &mut sub_row);
            for (b, got) in full_row.iter().enumerate() {
                let cell = dense.get(r, b).to_bits();
                assert_eq!(got.to_bits(), cell, "full panel row {r} broker {b}");
                assert_eq!(p.pair_utility(r, request, b).to_bits(), cell, "pair {r},{b}");
                corrupted += usize::from(!(0.0..=1.0).contains(&dense.get(r, b)));
            }
            for (j, &b) in subset.iter().enumerate() {
                assert_eq!(sub_row[j].to_bits(), dense.get(r, b).to_bits(), "subset {r},{b}");
            }
        }
        assert!(corrupted > 0, "the fault plan must corrupt some cells");
    }

    #[test]
    fn appeals_fire_on_terrible_service() {
        let (mut p, ds) = small_world();
        p.enable_appeals(AppealConfig { probability: 1.0, threshold: 0.2 });
        p.begin_day();
        // Grossly overload broker 0 so realised quality collapses below
        // the appeal threshold.
        let mut appeals = 0usize;
        for batch in &ds.days[0] {
            let assignment = vec![Some(0); batch.requests.len()];
            p.execute_batch(&batch.requests, &assignment);
            appeals = p.pending_appeals().len();
        }
        assert!(appeals > 0, "overloaded service should trigger appeals");
        // Appealed requests did not count toward workload or utility.
        let total_assigned: f64 = p.workload_today(0);
        let day_total: usize = ds.days[0].iter().map(|b| b.requests.len()).sum();
        assert!(
            (total_assigned as usize) + appeals == day_total,
            "workload {total_assigned} + appeals {appeals} != served {day_total}"
        );
    }

    #[test]
    fn appeal_requests_can_be_reoffered_without_rejected_broker() {
        let (mut p, ds) = small_world();
        p.enable_appeals(AppealConfig { probability: 1.0, threshold: 1.1 }); // everyone appeals
        p.begin_day();
        let batch = &ds.days[0][0];
        p.execute_batch(&batch.requests, &vec![Some(3); batch.requests.len()]);
        let appeals = p.take_pending_appeals();
        assert_eq!(appeals.len(), batch.requests.len());
        assert!(p.pending_appeals().is_empty(), "drained");
        // Re-offer: rejected broker has zero utility for its appellant.
        let reqs: Vec<Request> = appeals.iter().map(|a| a.request.clone()).collect();
        let m = p.utility_matrix_with_appeals(&reqs, &appeals);
        for r in 0..reqs.len() {
            assert_eq!(m.get(r, 3), 0.0);
        }
    }

    #[test]
    fn appeals_disabled_by_default() {
        let (mut p, ds) = small_world();
        p.begin_day();
        let batch = &ds.days[0][0];
        p.execute_batch(&batch.requests, &vec![Some(0); batch.requests.len()]);
        assert!(p.pending_appeals().is_empty());
    }
}
