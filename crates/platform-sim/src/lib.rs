//! Simulator of an online real-estate platform (the paper's evaluation
//! substrate).
//!
//! The paper evaluates on "a simulator of Beike, which takes the same
//! utility function deployed and outputs the utility between requests and
//! brokers" (Sec. VII-A). Neither the simulator nor the production data
//! is public, so this crate rebuilds the closest synthetic equivalent —
//! see DESIGN.md §2 for the substitution argument. The simulator provides
//! every behaviour the algorithms interact with:
//!
//! * **Brokers** ([`broker`]) with the Table II attribute vector, a
//!   latent daily capacity, and a broker-specific non-linear
//!   sign-up-rate response that plateaus below capacity and decays
//!   beyond it — the empirical shape of Figs. 2–3.
//! * **Requests** and day/batch arrival structure ([`request`],
//!   [`dataset`]), including the Table III synthetic grid and the
//!   Table IV city-scale generators.
//! * A **utility model** ([`utility`]) standing in for the deployed
//!   XGBoost predictor: `u_{r,b}` is a deterministic function of broker
//!   quality and request/broker affinity, scored a request row at a
//!   time over a structure-of-arrays broker [`panel`].
//! * The **environment loop** ([`environment`]): executes an assignment,
//!   applies overload degradation to realised sign-ups, advances broker
//!   fatigue day by day, and emits the `(x_b, w_b, s_b)` trial triples
//!   the bandits train on.
//! * **Metrics** ([`metrics`]): per-broker utility/workload
//!   distributions, totals, Gini coefficients — everything Figs. 4, 9,
//!   10 plot.

pub mod broker;
pub mod capacity_model;
pub mod config;
pub mod dataset;
pub mod environment;
pub mod faults;
pub mod io;
pub mod metrics;
pub mod panel;
pub mod request;
pub mod rng;
pub mod storage;
pub mod traffic;
pub mod utility;

pub use broker::{BrokerProfile, BrokerState, STATUS_DIM};
pub use capacity_model::overload_factor;
pub use config::{CityId, RealWorldConfig, SyntheticConfig};
pub use dataset::{Batch, Dataset};
pub use environment::{Appeal, AppealConfig, BatchOutcome, DayFeedback, Platform, TrialTriple};
pub use faults::{
    seeded_kill_schedule, seeded_schedule, CrashPoint, FaultConfig, FaultKind, FaultPlan,
    KillPoint, NetDelivery, NetFaultConfig, NetFaultKind, NetFaultPlan, ScenarioError, StateFault,
    StateFaultKind, StateTarget, NET_SCENARIOS, SCENARIOS,
};
pub use metrics::{
    gini, percentile, AuditReport, AuditViolation, BreakerComponent, BreakerEvent, BrokerLedger,
    InvariantKind, LedgerSnapshot, OverloadStats, RepairAction, RepairKind, ReplicationStats,
    ResilienceStats, RunMetrics, StageBreakdown, StageTimings, StorageMode, StorageStats,
    StorageTransition,
};
pub use panel::BrokerPanel;
pub use request::Request;
pub use rng::splitmix64;
pub use storage::{
    FaultVfs, SingleFault, SingleFaultKind, StorageFaultCensus, StorageFaultConfig,
    StorageScenarioError, STORAGE_SCENARIOS,
};
pub use traffic::{ramp_dataset, TrafficRamp};
pub use utility::UtilityModel;
