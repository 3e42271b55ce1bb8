//! # microbank-ctrl
//!
//! The memory controller of the μbank system (paper §V and §VI-A):
//!
//! * a 32-entry request queue per controller ([`queue`]),
//! * PAR-BS batch scheduling with FR-FCFS row-hit priority ([`scheduler`]),
//! * page-management policies — static open/close, minimalist-open, and the
//!   paper's prediction-based schemes (local and global bimodal predictors,
//!   a tournament chooser, and the perfect oracle) ([`policy`],
//!   [`predictor`]),
//! * the command-generation engine that drives a
//!   [`microbank_core::channel::Channel`] while obeying every timing
//!   constraint, plus refresh handling ([`controller`]),
//! * multi-tenant QoS regulation — per-tenant token-bucket bandwidth
//!   budgets at channel or μbank granularity plus a tenant-priority axis
//!   in the scheduler ([`qos`]).

pub mod controller;
pub mod policy;
pub mod predictor;
pub mod qos;
pub mod queue;
pub mod scheduler;

pub use controller::{Completion, CtrlStats, MemoryController, WriteDrain};
pub use policy::PolicyKind;
pub use predictor::{
    BimodalCounter, GlobalPredictor, LocalPredictor, PageDecision, PredictorKind, PredictorStats,
    TournamentPredictor,
};
pub use qos::{
    tenant_slot, QosConfig, QosGranularity, QosRegulator, QosStats, TenantPolicy, MAX_TENANTS,
};
pub use queue::RequestQueue;
pub use scheduler::SchedulerKind;
