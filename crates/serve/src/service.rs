//! The resident multi-stream service.
//!
//! One [`ElService`] holds the model weights once (behind an [`Arc`],
//! read-only) and a table of per-stream [`Session`]s. Frames are
//! submitted per session and processed in *ticks*: each tick drains at
//! most one frame per session, admission-controls the drained set
//! against the tick budget, then runs the admitted frames through the
//! shared `el-core` frame stages ([`el_core::stages`]) — the same
//! functions a solo [`el_core::ElPipeline`] composes for one frame: the
//! plan stage for every frame in parallel (order-preserving), **one**
//! coalesced verify stage over all streams' borrowed crops, the audits
//! in parallel, and each frame's sequential decision replay.
//!
//! # Why cross-stream batching is legal
//!
//! MC-dropout masks are coordinate-keyed — a pure function of (sample
//! seed, layer, channel, global pixel) — so a crop's Monte-Carlo
//! statistics are independent of what else shares its batch. The verify
//! stage seeds crop `i` of a frame with
//! `el_monitor::batch_seed(frame_seed, i)` wherever it lands in the
//! batch, and every other stage is the very function a solo pipeline
//! calls; the coalesced path is therefore bit-identical to running each
//! stream through its own pipeline, frame by frame, by construction (and
//! property-tested in `tests/serve_determinism.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use el_core::pipeline::PipelineConfig;
use el_core::stages::{audit_frame, plan_frame, FramePlan};
use el_core::{replay_decisions, RiskConfig};
use el_geom::{Point, Rect};
use el_monitor::{AuditPrecision, Monitor};
use el_riskmap::{RiskMap, RiskMapConfig, RiskMapSnapshot, RiskObservation};
use el_scene::Image;
use el_seg::MsdNet;
use rayon::prelude::*;

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::session::{DriftConfig, FrameRequest, FrameTicket, Session, SessionId, SessionSummary};

/// Clock driving the per-frame audit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickClock {
    /// Wall-clock seconds since the frame's audit began (production).
    Wall,
    /// A clock pinned at zero: the audit always sees its full budget.
    /// Deterministic across machines and thread counts — the clock for
    /// reproducibility tests with audits enabled.
    Zero,
}

/// The fleet risk-map subsystem configuration: the shared map's shape
/// and decay ([`RiskMapConfig`]) plus the screening policy thresholds
/// applied to each frame's candidates ([`el_core::RiskConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RiskSettings {
    /// The shared ground-risk grid.
    pub map: RiskMapConfig,
    /// Veto/deprioritise thresholds for candidate screening.
    pub policy: RiskConfig,
}

impl RiskSettings {
    /// Small map and aggressive thresholds for tests and smoke runs.
    pub fn fast_test() -> Self {
        RiskSettings {
            map: RiskMapConfig::fast_test(),
            policy: RiskConfig::fast_test(),
        }
    }

    /// A map that accumulates but never influences screening
    /// ([`RiskConfig::never`]) — the "enabled but advisory-only" mode
    /// whose decisions must be bit-identical to running with no map.
    pub fn advisory() -> Self {
        RiskSettings {
            map: RiskMapConfig::fast_test(),
            policy: RiskConfig::never(),
        }
    }

    /// Validates both halves.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.map.validate()?;
        self.policy.validate()
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The per-frame pipeline configuration (zone, monitor, decision,
    /// audit). The zone clearance acts as a floor; sessions with a drift
    /// tracker raise it per frame as the wind demands.
    pub pipeline: PipelineConfig,
    /// Frame admission control.
    pub admission: AdmissionConfig,
    /// Per-session drift tracking; `None` leaves clearance fixed at the
    /// configured zone parameters.
    pub drift: Option<DriftConfig>,
    /// The audit-budget clock.
    pub audit_clock: TickClock,
    /// Per-session inbox capacity; a submission beyond it is refused
    /// immediately (backpressure, counted and logged).
    pub max_inbox: usize,
    /// The fleet risk map: `None` runs the service exactly as before
    /// (no map state, no screening); `Some` accumulates every session's
    /// audit regions into one shared map and screens each frame's
    /// candidates against it *before* verification.
    pub riskmap: Option<RiskSettings>,
    /// The audit's numerical contract. It has one value
    /// ([`AuditPrecision::exact`]) and is kept only so existing
    /// `ServeConfig` literals compile; it goes when the benchmark is next
    /// revised.
    pub precision: AuditPrecision,
}

impl ServeConfig {
    /// A fast unconstrained configuration for tests: `fast_test`
    /// pipeline, unlimited admission, no drift tracking, zero clock.
    pub fn fast_test() -> Self {
        ServeConfig {
            pipeline: PipelineConfig::fast_test(),
            admission: AdmissionConfig::unlimited(),
            drift: None,
            audit_clock: TickClock::Zero,
            max_inbox: 4,
            riskmap: None,
            precision: AuditPrecision::exact(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.pipeline.validate()?;
        self.admission.validate()?;
        if let Some(drift) = &self.drift {
            drift.validate()?;
        }
        if self.max_inbox == 0 {
            return Err("max_inbox must be positive".into());
        }
        if let Some(riskmap) = &self.riskmap {
            riskmap.validate()?;
        }
        Ok(())
    }
}

/// An invalid [`ServeConfig`] or service misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// The session id is unknown (never opened, or already closed).
    UnknownSession(SessionId),
    /// The submitted frame cannot be processed: a zero width or height,
    /// a non-finite pixel, a non-finite wind observation, or a wind whose
    /// drift clearance is non-finite.
    InvalidFrame(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(detail) => {
                write!(f, "invalid serve configuration: {detail}")
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::InvalidFrame(detail) => write!(f, "invalid frame: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What one [`ElService::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Frames drained from session inboxes this tick.
    pub requested: usize,
    /// Frames admitted and fully processed.
    pub admitted: usize,
    /// Frames refused by admission control.
    pub refused: usize,
    /// Candidate crops verified in the coalesced batch.
    pub crops: usize,
    /// Land decisions among the admitted frames.
    pub landings: usize,
    /// Abort decisions among the admitted frames.
    pub aborts: usize,
    /// Candidates removed by the risk-map screen before verification.
    pub vetoes: usize,
    /// Candidates demoted (not removed) by the risk-map screen.
    pub deprioritized: usize,
}

/// The resident multi-stream pipeline service.
#[derive(Debug)]
pub struct ElService {
    net: Arc<MsdNet>,
    monitor: Monitor,
    config: ServeConfig,
    sessions: BTreeMap<SessionId, Session>,
    next_id: SessionId,
    admission: AdmissionControl,
    ticks: u64,
    /// The fleet's shared ground-risk map, present iff configured.
    /// Mutated only between pipeline phases (ingest + advance at the
    /// end of each tick), read-only during the parallel propose phase.
    riskmap: Option<RiskMap>,
}

impl ElService {
    /// Creates a service around shared read-only weights.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if the configuration fails
    /// validation, or if the pipeline cannot run `net`
    /// ([`PipelineConfig::validate_for`]: its classes, its input channels
    /// or an enabled audit's margin).
    pub fn try_new(net: Arc<MsdNet>, config: ServeConfig) -> Result<Self, ServeError> {
        config
            .validate()
            .and_then(|()| config.pipeline.validate_for(&net))
            .map_err(ServeError::InvalidConfig)?;
        let monitor = Monitor::new(config.pipeline.monitor);
        let admission = AdmissionControl::new(config.admission);
        let riskmap = match &config.riskmap {
            // validate() above already vetted the map configuration.
            Some(settings) => Some(RiskMap::new(settings.map.clone()).map_err(|e| {
                ServeError::InvalidConfig(format!("risk map rejected its configuration: {e}"))
            })?),
            None => None,
        };
        Ok(ElService {
            net,
            monitor,
            config,
            sessions: BTreeMap::new(),
            next_id: 0,
            admission,
            ticks: 0,
            riskmap,
        })
    }

    /// The shared weights.
    pub fn net(&self) -> &Arc<MsdNet> {
        &self.net
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The admission controller (read-only view).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Frames currently queued across all session inboxes.
    pub fn pending(&self) -> usize {
        self.sessions.values().map(Session::queued).sum()
    }

    /// The fleet risk map, if the service runs one.
    pub fn riskmap(&self) -> Option<&RiskMap> {
        self.riskmap.as_ref()
    }

    /// A snapshot of the fleet risk map with hot cells classified at
    /// the configured veto threshold, or `None` when no map runs.
    pub fn riskmap_snapshot(&self) -> Option<RiskMapSnapshot> {
        let map = self.riskmap.as_ref()?;
        let veto = self
            .config
            .riskmap
            .as_ref()
            .map(|r| r.policy.veto_heat)
            .unwrap_or(f64::INFINITY);
        Some(map.snapshot(veto))
    }

    /// Opens a session with its frames anchored at the fleet origin.
    /// `frame_chain` keys the stream's per-frame seed chain (see
    /// [`el_uavsim::seedchain::stream_seeds`]).
    pub fn open_session(&mut self, frame_chain: u64) -> SessionId {
        self.open_session_at(frame_chain, Point::new(0, 0))
    }

    /// Opens a session whose frames sit at `origin_px` in the fleet's
    /// shared ground coordinate system — the frame-local audit regions
    /// of this stream land on the risk map translated by this origin,
    /// and its candidates are screened at the same offset.
    pub fn open_session_at(&mut self, frame_chain: u64, origin_px: Point) -> SessionId {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            Session::new(id, frame_chain, origin_px, self.config.drift),
        );
        el_metrics::registry().serve_sessions.add(1);
        id
    }

    /// Borrows a session.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Closes a session, returning its lifetime summary.
    pub fn close_session(&mut self, id: SessionId) -> Result<SessionSummary, ServeError> {
        self.sessions
            .remove(&id)
            .map(|s| s.summary())
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Submits a frame to a session's inbox. Returns `false` when the
    /// inbox is full — the frame is refused immediately (logged with its
    /// position-keyed seed, counted) rather than silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for a closed or unknown id,
    /// and [`ServeError::InvalidFrame`] for an empty image, a non-finite
    /// pixel, a non-finite wind, or (with drift tracking configured) a wind
    /// whose drift clearance is non-finite. A rejected frame is never
    /// assigned a frame index, so it shifts no other frame's seed.
    pub fn submit(&mut self, id: SessionId, request: FrameRequest) -> Result<bool, ServeError> {
        let cap = self.config.max_inbox;
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        let (w, h) = (request.image.width(), request.image.height());
        if w == 0 || h == 0 {
            return Err(ServeError::InvalidFrame(format!("empty {w}x{h} image")));
        }
        if let Some(i) = request
            .image
            .iter()
            .position(|px| px.iter().any(|v| !v.is_finite()))
        {
            let px = request.image.as_slice()[i];
            return Err(ServeError::InvalidFrame(format!(
                "non-finite pixel {px:?} at ({}, {})",
                i % w,
                i / w
            )));
        }
        if !request.wind_mps.is_finite() {
            return Err(ServeError::InvalidFrame(format!(
                "non-finite wind {} m/s",
                request.wind_mps
            )));
        }
        // A finite wind can still be too large for the drift model: its
        // clearance overflows to +∞, which no zone search accepts. The
        // tracker's EWMA never exceeds the largest wind it was fed, so
        // rejecting such winds here keeps every tick's clearance finite.
        if let Some(drift) = &self.config.drift {
            let clearance = drift.required_clearance_px(request.wind_mps);
            if !clearance.is_finite() {
                return Err(ServeError::InvalidFrame(format!(
                    "wind {} m/s needs a non-finite drift clearance ({clearance} px)",
                    request.wind_mps
                )));
            }
        }
        let queued = session.enqueue(request, cap);
        if !queued {
            el_metrics::registry().serve_refusals.add(1);
        }
        Ok(queued)
    }

    /// Processes one tick: drains at most one frame per session (session
    /// order, with a deterministic per-tick rotation so admission
    /// pressure is shared fairly), admission-controls, proposes in
    /// parallel, verifies every stream's crops in one coalesced batch,
    /// and replays each frame's decision sequentially.
    pub fn tick(&mut self) -> TickReport {
        let metrics = el_metrics::registry();
        let sw = el_metrics::Stopwatch::start();
        // The admission EWMA measures wall time regardless of whether
        // metrics recording is enabled.
        let t0 = Instant::now();

        let depth: usize = self.sessions.values().map(Session::queued).sum();
        metrics.serve_queue_depth.record_ns(depth as u64);

        // Drain one ticket per session in deterministic order.
        let mut entries: Vec<(&mut Session, FrameTicket)> = self
            .sessions
            .values_mut()
            .filter_map(|s| s.pop_ticket().map(|t| (s, t)))
            .collect();
        let requested = entries.len();
        // Rotate the admission order by tick index: refusals under
        // sustained overload spread across streams instead of starving
        // the highest session ids. Deterministic — the rotation depends
        // only on the tick count.
        if entries.len() > 1 {
            let r = (self.ticks as usize) % entries.len();
            entries.rotate_left(r);
        }
        self.ticks += 1;

        let admitted_n = self.admission.admit(requested);
        let refused: Vec<(&mut Session, FrameTicket)> = entries.split_off(admitted_n);
        let mut report = TickReport {
            requested,
            admitted: entries.len(),
            refused: refused.len(),
            ..TickReport::default()
        };
        for (session, ticket) in refused {
            session.record_refusal(ticket);
        }

        // Plan stage, in parallel: per-frame drift update, segmentation,
        // zone proposal, risk-map screening and crop cutting.
        // Order-preserving par-map over disjoint sessions; the shared
        // network and the risk map are both read-only here — every frame
        // this tick screens against the map state *as of the end of the
        // previous tick*, so the outcome is independent of intra-tick
        // processing order.
        let net = &self.net;
        let pipeline = &self.config.pipeline;
        let riskmap = self.riskmap.as_ref();
        let risk_policy = self.config.riskmap.as_ref().map(|r| &r.policy);
        let planned: Vec<(&mut Session, FrameTicket, f64, FramePlan)> = entries
            .into_par_iter()
            .map(|(session, ticket)| {
                let clearance = session.clearance_for(ticket.request.wind_mps);
                let mut zone = pipeline.zone.clone();
                if let Some(px) = clearance {
                    // The configured clearance is a floor the wind can
                    // only raise.
                    zone.clearance_px = zone.clearance_px.max(px);
                }
                let origin = session.geo_origin_px();
                let heat =
                    riskmap.map(|map| move |rect: Rect| map.max_heat_px(rect.translate(origin)));
                let screen = risk_policy
                    .zip(heat.as_ref())
                    .map(|(policy, heat)| (policy, heat as &dyn Fn(Rect) -> f64));
                let plan = plan_frame(
                    net,
                    &ticket.request.image,
                    pipeline,
                    &zone,
                    screen,
                    &mut session.ws,
                );
                (session, ticket, zone.clearance_px, plan)
            })
            .collect();

        // Verify stage: every stream's borrowed crops in ONE coalesced
        // engine call. Crop seeds replicate the solo pipeline exactly:
        // crop `i` of a frame uses `batch_seed(frame_seed, i)`,
        // regardless of where the crop lands in the coalesced batch.
        let frames: Vec<(&[Image], u64)> = planned
            .iter()
            .map(|(_, ticket, _, plan)| (&plan.crops[..], ticket.seed))
            .collect();
        report.crops = frames.iter().map(|(crops, _)| crops.len()).sum();
        metrics.serve_batch_crops.record_ns(report.crops as u64);
        let reports = if report.crops == 0 {
            planned.iter().map(|_| Vec::new()).collect()
        } else {
            self.monitor.verify_frames(&self.net, &frames)
        };

        // Audit stage, in parallel: each audit reads only the shared
        // network and its own frame, and with `TickClock::Zero` the
        // result is a pure function of (net, image, seed, priority), so
        // parallelising audits changes nothing bit-wise.
        let audit_clock = self.config.audit_clock;
        let verified: Vec<_> = planned.into_iter().zip(reports).collect();
        let audited: Vec<_> = verified
            .into_par_iter()
            .map(|((session, ticket, clearance_px, plan), frame_reports)| {
                let clock: Box<dyn FnMut() -> f64> = match audit_clock {
                    TickClock::Wall => {
                        let start = Instant::now();
                        Box::new(move || start.elapsed().as_secs_f64())
                    }
                    TickClock::Zero => Box::new(|| 0.0),
                };
                let image = &ticket.request.image;
                let audit = audit_frame(net, image, pipeline, ticket.seed, &plan.priority, clock);
                (session, ticket, clearance_px, plan, frame_reports, audit)
            })
            .collect();

        // Replay each frame's decision sequentially — identical
        // semantics to a solo run — collecting this tick's audit
        // regions as georeferenced risk observations along the way.
        let collect_risk = riskmap.is_some();
        let mut observations: Vec<RiskObservation> = Vec::new();
        let tick_ns_hint = t0.elapsed().as_nanos() as u64;
        for (session, ticket, clearance_px, plan, frame_reports, audit) in audited {
            let (decision, trials) = replay_decisions(
                pipeline.decision,
                pipeline.monitored,
                plan.candidates,
                &frame_reports,
            );
            match decision {
                el_core::FinalDecision::Land(_) => report.landings += 1,
                el_core::FinalDecision::Abort(_) => report.aborts += 1,
            }
            report.vetoes += plan.vetoed;
            report.deprioritized += plan.deprioritized;
            if collect_risk {
                if let Some(audit_report) = &audit {
                    let origin = session.geo_origin_px();
                    observations.extend(audit_report.regions.iter().map(|region| {
                        RiskObservation::from_region(session.id(), ticket.frame, origin, region)
                    }));
                }
            }
            session.record_decision(
                ticket.frame,
                ticket.seed,
                clearance_px,
                decision,
                trials,
                audit.as_ref(),
                tick_ns_hint,
            );
        }

        // Fold the tick's observations into the shared map and advance
        // its decay clock. Ingestion canonicalises its own order, so
        // the map's state after this point is a pure function of the
        // set of observations, not of how the tick produced them.
        if let Some(map) = self.riskmap.as_mut() {
            let sw_ingest = el_metrics::Stopwatch::start();
            map.ingest_batch(observations);
            map.advance();
            metrics.riskmap_ingest.record(sw_ingest);
            let veto = self
                .config
                .riskmap
                .as_ref()
                .map(|r| r.policy.veto_heat)
                .unwrap_or(f64::INFINITY);
            metrics
                .riskmap_cells_hot
                .record_ns(map.hot_cells(veto) as u64);
            metrics.riskmap_vetoes.add(report.vetoes as u64);
            metrics
                .riskmap_deprioritized
                .add(report.deprioritized as u64);
        }

        self.admission
            .observe(report.admitted, t0.elapsed().as_secs_f64());
        metrics.serve_frames.add(report.admitted as u64);
        metrics.serve_refusals.add(report.refused as u64);
        metrics.serve_tick.record(sw);
        report
    }

    /// Ticks until every inbox is empty; returns the merged report.
    pub fn drain(&mut self) -> TickReport {
        let mut total = TickReport::default();
        while self.sessions.values().any(|s| s.queued() > 0) {
            let t = self.tick();
            total.requested += t.requested;
            total.admitted += t.admitted;
            total.refused += t.refused;
            total.crops += t.crops;
            total.landings += t.landings;
            total.aborts += t.aborts;
            total.vetoes += t.vetoes;
            total.deprioritized += t.deprioritized;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_core::audit::AuditConfig;
    use el_seg::MsdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(config: &MsdNetConfig) -> Arc<MsdNet> {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        Arc::new(MsdNet::new(config, &mut rng))
    }

    fn with_audit(audit: AuditConfig) -> ServeConfig {
        ServeConfig {
            pipeline: PipelineConfig::fast_test().with_audit(audit),
            ..ServeConfig::fast_test()
        }
    }

    #[test]
    fn audit_margin_below_receptive_radius_is_a_config_error() {
        // The paper net's dilation-4 branches have receptive radius 4; a
        // 1 px margin must fail construction rather than panic on the
        // first audited frame and take the whole tick down with it.
        let uavid = net(&MsdNetConfig::default_uavid());
        assert_eq!(uavid.receptive_radius(), 4);
        let config = with_audit(AuditConfig {
            margin: 1,
            ..AuditConfig::paper_scale()
        });
        match ElService::try_new(uavid.clone(), config) {
            Err(ServeError::InvalidConfig(detail)) => assert!(
                detail.contains("margin 1") && detail.contains("radius 4"),
                "message should name the margin and the radius, got: {detail}"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A margin at the radius is accepted, as is a disabled audit's
        // inert margin.
        let at_radius = with_audit(AuditConfig {
            margin: 4,
            ..AuditConfig::paper_scale()
        });
        assert!(ElService::try_new(uavid.clone(), at_radius).is_ok());
        let disabled = with_audit(AuditConfig {
            margin: 1,
            ..AuditConfig::disabled()
        });
        assert!(ElService::try_new(uavid, disabled).is_ok());
        // The test fixture (margin 4) on the tiny net (radius 2) stays
        // valid.
        let tiny = net(&MsdNetConfig::tiny());
        assert_eq!(tiny.receptive_radius(), 2);
        assert!(ElService::try_new(tiny, with_audit(AuditConfig::fast_test())).is_ok());
    }

    #[test]
    fn nets_the_pipeline_cannot_run_are_config_errors() {
        // Valid `MsdNetConfig`s whose shape the pipeline cannot run: the
        // first tick would panic inside its parallel plan stage and take
        // every stream down with it.
        let mut four_classes = MsdNetConfig::tiny();
        four_classes.classes = 4;
        let mut four_channels = MsdNetConfig::tiny();
        four_channels.in_channels = 4;
        for (cfg, expect) in [
            (four_classes, "4 output classes, expected 8"),
            (four_channels, "4 input channels, expected 3"),
        ] {
            match ElService::try_new(net(&cfg), ServeConfig::fast_test()) {
                Err(ServeError::InvalidConfig(detail)) => {
                    assert!(detail.contains(expect), "got: {detail}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn zone_side_overflow_is_a_config_error() {
        // 2·h + 1 overflows i64: the zone search must never see it.
        let mut config = ServeConfig::fast_test();
        config.pipeline.zone.zone_half_side = i64::MAX / 2 + 1;
        match ElService::try_new(net(&MsdNetConfig::tiny()), config) {
            Err(ServeError::InvalidConfig(detail)) => {
                assert!(detail.contains("zone_half_side"), "got: {detail}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn huge_finite_wind_is_rejected_before_it_reaches_the_tick() {
        // With drift tracking, a finite wind of 1e308 m/s needs an
        // infinite clearance; accepting it used to panic the next tick's
        // zone search. It is an invalid frame and consumes no frame index.
        let config = ServeConfig {
            drift: Some(DriftConfig::medi_delivery()),
            ..ServeConfig::fast_test()
        };
        let drift = config.drift.expect("drift configured");
        assert!(drift.required_clearance_px(1e308).is_infinite());
        let mut service =
            ElService::try_new(net(&MsdNetConfig::tiny()), config.clone()).expect("valid config");
        let mut reference =
            ElService::try_new(net(&MsdNetConfig::tiny()), config).expect("valid config");
        let (id, ref_id) = (service.open_session(7), reference.open_session(7));
        let frame = |wind_mps| FrameRequest {
            image: Image::new(24, 24, [0.5; 3]),
            wind_mps,
        };
        for wind in [1e308, f64::MAX] {
            match service.submit(id, frame(wind)) {
                Err(ServeError::InvalidFrame(detail)) => {
                    assert!(detail.contains("wind"), "got: {detail}")
                }
                other => panic!("wind {wind}: expected InvalidFrame, got {other:?}"),
            }
        }
        // Huge winds whose clearance is still finite (and negative ones,
        // clamped to calm) are accepted, and ticks over them run.
        assert!(drift.required_clearance_px(1e300).is_finite());
        assert!(drift.required_clearance_px(-1e308).is_finite());
        for wind in [1e300, 1e300, -1e308, 3.0] {
            assert_eq!(service.submit(id, frame(wind)), Ok(true));
            assert_eq!(reference.submit(ref_id, frame(wind)), Ok(true));
            let (tick, ref_tick) = (service.tick(), reference.tick());
            assert_eq!(
                (tick.admitted, tick.aborts),
                (ref_tick.admitted, ref_tick.aborts)
            );
        }
        let (summary, ref_summary) = (
            service.close_session(id).expect("open session"),
            reference.close_session(ref_id).expect("open session"),
        );
        assert_eq!(summary.frames, 4);
        assert_eq!(summary.decision_fp, ref_summary.decision_fp);
    }
}
