//! `el-serve` — the resident multi-stream pipeline service.
//!
//! The per-mission [`el_core::ElPipeline`] owns its network and scratch
//! state, which is the right shape for one UAV replaying one mission.
//! A ground station (or a simulation campaign) instead watches *many*
//! streams against *one* trained model. This crate provides that shape:
//!
//! - **Shared weights.** One [`ElService`] holds the [`el_seg::MsdNet`]
//!   behind an [`std::sync::Arc`], read-only; sessions never copy it.
//! - **Resident sessions.** Each stream keeps a [`Session`]: its own
//!   scratch arena (warm frames allocate nothing), a wind-driven drift
//!   tracker feeding clearance requirements, a bounded audit history,
//!   and an append-only decision log with running fingerprints.
//! - **Predictive admission.** The ingestion front applies the audit's
//!   EWMA cost model at frame granularity ([`AdmissionControl`]):
//!   frames that would blow the tick budget are refused *up front*,
//!   and refusals are logged outcomes, never silent drops.
//! - **Cross-stream batch coalescing.** All admitted frames' candidate
//!   crops go through **one** [`el_monitor::Monitor::verify_frames`]
//!   call per tick — the verify stage a solo pipeline runs for its one
//!   frame. Coordinate-keyed MC-dropout masks make each crop's
//!   statistics independent of its batch neighbours, so the coalesced
//!   result is bit-identical to running every stream solo — property-
//!   tested, and fingerprint-checked across worker-thread counts.
//! - **Observability.** Every stage records into [`el_metrics`]'s
//!   `serve` group; sessions carry their own latency/outcome
//!   instruments, surfaced in [`SessionSummary`].
//!
//! See `docs/serve.md` for the session lifecycle, the admission
//! contract, and the batching determinism argument.

pub mod admission;
pub mod loadgen;
pub mod service;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionControl, CostModel, FRAME_COST_EWMA_ALPHA};
// Re-exported so `ServeConfig { precision, .. }` can be built from this
// crate alone.
pub use el_monitor::AuditPrecision;
// Fingerprinting moved to `el_metrics` when the fleet risk map started
// hashing snapshots with the same discipline; re-exported for the
// existing `el_serve::Fingerprint` users.
pub use el_metrics::Fingerprint;
pub use loadgen::{
    generate_streams, median_u64, run_load, LoadConfig, LoadReport, StreamFrames, TerrainMode,
};
pub use service::{ElService, RiskSettings, ServeConfig, ServeError, TickClock, TickReport};
pub use session::{
    AuditSummary, DriftConfig, DriftTracker, FrameOutcome, FrameRecord, FrameRequest, Session,
    SessionId, SessionSummary, AUDIT_HISTORY_CAP,
};
