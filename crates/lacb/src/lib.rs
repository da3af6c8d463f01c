//! LACB — Learned Assignment with Contextual Bandits (the paper's core
//! contribution) and every comparator of its evaluation.
//!
//! The crate is organised around the [`Assigner`] trait: a broker-matching
//! policy that, day by day and batch by batch, decides which broker serves
//! which request. The experiment [`runner`] drives any `Assigner` through
//! a [`platform_sim::Platform`] and collects the utility/runtime metrics
//! the paper's figures report.
//!
//! Implemented policies:
//!
//! | Policy | Paper section | Capacity | Assignment |
//! |---|---|---|---|
//! | [`TopK`] | baseline (Cremonesi et al.) | none | client picks among the k highest-utility brokers |
//! | [`RandomizedRecommendation`] | baseline (fair matching) | none | quality-weighted sampling |
//! | [`BatchKm`] | baseline | none | per-batch Kuhn–Munkres |
//! | [`CTopK`] | baseline (Christakopoulou et al.) | one empirical city-level constant | Top-K over non-saturated brokers |
//! | [`AssignmentNeuralUcb`] (AN) | baseline (Zhou et al.) | generic NeuralUCB | per-batch KM |
//! | [`Lacb`] | Secs. V–VI | personalised NN-enhanced UCB | value-function-guided KM (VFGA, Alg. 2) |
//! | [`Lacb`] with [`LacbConfig::use_cbs`] (LACB-Opt) | Sec. VI-C | same | VFGA on the CBS-reduced graph (Alg. 3) |
//! | [`OracleCapacity`] | — (upper reference) | ground-truth effective capacity | per-batch KM |

pub mod assigner;
pub mod audit;
pub mod baselines;
pub mod checkpoint;
pub mod lacb;
pub mod overload;
pub mod replication;
pub mod resilient;
pub mod runner;
pub mod serving;
pub mod storage;
pub mod supervisor;
pub mod value_function;

pub use assigner::Assigner;
pub use audit::{AuditConfig, Auditor};
pub use baselines::an::AssignmentNeuralUcb;
pub use baselines::ctop_k::CTopK;
pub use baselines::greedy::GreedyMatch;
pub use baselines::km::BatchKm;
pub use baselines::oracle::OracleCapacity;
pub use baselines::rr::RandomizedRecommendation;
pub use baselines::top_k::TopK;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use lacb::{
    tuned_bandit_config, Lacb, LacbConfig, Personalization, SparseMode, SCORE_WORK_PER_BROKER,
};
pub use overload::{
    run_overload, OverloadConfig, OverloadOutcome, OverloadSnapshot, OverloadState,
};
pub use platform_sim::RunMetrics;
pub use replication::{
    run_replicated, ReplicatedOutcome, ReplicationConfig, ReplicationError, REPLICA_WAL_FILE,
};
pub use resilient::{run_chaos, ResilienceConfig, ResilientAssigner};
pub use runner::{run, RunConfig};
pub use storage::{FaultSite, StorageConfig, StorageGuard};
pub use supervisor::{
    run_durable, run_overload_durable, DurableConfig, DurableOutcome, RecoveryError,
};
pub use value_function::ValueFunction;
