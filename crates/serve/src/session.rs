//! Per-stream session state.
//!
//! A session owns everything one UAV stream needs between frames: its
//! scratch arena (so warm frames allocate nothing), its wind-driven
//! drift tracker (clearance requirements follow the observed wind), a
//! bounded audit history, an append-only decision log with running
//! fingerprints, and its own latency/outcome instruments. Nothing in a
//! session is shared: two sessions never alias mutable state, which is
//! what lets the service propose frames for all sessions in parallel.

use std::collections::VecDeque;

use el_core::pipeline::{FinalDecision, Trial};
use el_core::requirements::IntegrityLevel;
use el_core::{AuditReport, DriftModel};
use el_geom::Point;
use el_metrics::{Counter, Fingerprint, Histogram, HistogramSnapshot};
use el_nn::Workspace;
use el_scene::{Camera, Image};
use serde::Serialize;

/// Session identifier, unique for the lifetime of one service.
pub type SessionId = u64;

/// How many audit summaries a session retains (oldest evicted first).
pub const AUDIT_HISTORY_CAP: usize = 32;

/// Wind-adaptive clearance tracking for one stream.
///
/// Frames carry an observed wind speed; the tracker smooths it with an
/// EWMA and converts it into the required clearance in pixels through the
/// parachute [`DriftModel`] and the stream's camera. Pure per-stream
/// state — identical across worker-thread counts by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// The parachute descent/drift model.
    pub model: DriftModel,
    /// The stream's camera (converts metres to pixels).
    pub camera: Camera,
    /// Integrity level of the clearance computation.
    pub level: IntegrityLevel,
    /// EWMA smoothing factor for the observed wind speed, in `(0, 1]`
    /// (1 = trust each frame's observation completely).
    pub wind_alpha: f64,
}

impl DriftConfig {
    /// The MEDI DELIVERY platform at Medium integrity with moderate
    /// wind smoothing.
    pub fn medi_delivery() -> Self {
        DriftConfig {
            model: DriftModel::medi_delivery(),
            camera: Camera::new(120.0, 60.0, 256),
            level: IntegrityLevel::Medium,
            wind_alpha: 0.3,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()?;
        if !(self.wind_alpha > 0.0 && self.wind_alpha <= 1.0) {
            return Err("wind_alpha must be in (0, 1]".into());
        }
        Ok(())
    }

    /// Required clearance (pixels) at a wind speed (m/s, clamped
    /// non-negative as the tracker clamps it).
    pub fn required_clearance_px(&self, wind_mps: f64) -> f64 {
        self.model
            .required_clearance_px(wind_mps.max(0.0), self.level, &self.camera)
    }
}

/// The per-session drift tracker (see [`DriftConfig`]).
#[derive(Debug, Clone)]
pub struct DriftTracker {
    config: DriftConfig,
    ewma_wind_mps: Option<f64>,
}

impl DriftTracker {
    /// Creates a tracker.
    pub fn new(config: DriftConfig) -> Self {
        DriftTracker {
            config,
            ewma_wind_mps: None,
        }
    }

    /// Feeds one frame's observed wind speed (m/s, clamped non-negative;
    /// non-finite observations are ignored) and returns the required
    /// clearance in pixels for this frame.
    pub fn observe(&mut self, wind_mps: f64) -> f64 {
        if wind_mps.is_finite() {
            let w = wind_mps.max(0.0);
            self.ewma_wind_mps = Some(match self.ewma_wind_mps {
                None => w,
                Some(avg) => self.config.wind_alpha * w + (1.0 - self.config.wind_alpha) * avg,
            });
        }
        self.required_clearance_px()
    }

    /// The smoothed wind estimate, m/s (0 before the first observation).
    pub fn wind_mps(&self) -> f64 {
        self.ewma_wind_mps.unwrap_or(0.0)
    }

    /// Required clearance (pixels) at the current wind estimate.
    pub fn required_clearance_px(&self) -> f64 {
        self.config.required_clearance_px(self.wind_mps())
    }
}

/// One incoming frame.
#[derive(Debug, Clone)]
pub struct FrameRequest {
    /// The on-board image.
    pub image: Image,
    /// Observed wind speed at capture time, m/s. Ignored (with the
    /// clearance left at its configured value) when the session has no
    /// drift tracker.
    pub wind_mps: f64,
}

/// A frame queued inside a session: the request plus its position-keyed
/// identity. Seeds are assigned at submission, so a frame's randomness
/// is a pure function of `(stream, frame index)` — refusals and queueing
/// never shift any other frame's seed.
#[derive(Debug)]
pub(crate) struct FrameTicket {
    pub frame: usize,
    pub seed: u64,
    pub request: FrameRequest,
}

/// What happened to one frame.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FrameOutcome {
    /// Refused by admission control (or inbox overflow) — never entered
    /// the pipeline.
    Refused,
    /// Fully processed.
    Decided {
        /// The landing decision.
        decision: FinalDecision,
        /// Every monitor trial replayed, in order.
        trials: Vec<Trial>,
    },
}

/// One entry of a session's decision log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrameRecord {
    /// Frame index within the stream.
    pub frame: usize,
    /// The pipeline seed this frame ran (or would have run) under.
    pub seed: u64,
    /// The clearance requirement (pixels) in force for this frame.
    pub clearance_px: f64,
    /// The outcome.
    pub outcome: FrameOutcome,
}

/// A distilled audit result retained in the session's bounded history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditSummary {
    /// Frame index the audit belongs to.
    pub frame: usize,
    /// Fraction of the frame audited before the budget expired.
    pub coverage: f64,
    /// Fraction of audited pixels in warning state.
    pub warning_fraction: f64,
    /// Connected anomalous regions found.
    pub regions: usize,
    /// Whether the whole frame was audited.
    pub complete: bool,
}

impl AuditSummary {
    fn from_report(frame: usize, report: &AuditReport) -> Self {
        AuditSummary {
            frame,
            coverage: report.coverage(),
            warning_fraction: report.warning_fraction,
            regions: report.regions.len(),
            complete: report.is_complete(),
        }
    }
}

/// A closed session's lifetime summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionSummary {
    /// The session id.
    pub id: SessionId,
    /// Frames fully processed.
    pub frames: u64,
    /// Frames refused.
    pub refusals: u64,
    /// Land decisions.
    pub landings: u64,
    /// Abort decisions.
    pub aborts: u64,
    /// Decision-log fingerprint (hex).
    pub decision_fp: String,
    /// Audit-history fingerprint (hex).
    pub audit_fp: String,
    /// Per-frame latency attributed to this stream.
    pub latency: HistogramSnapshot,
}

/// One stream's resident state.
#[derive(Debug)]
pub struct Session {
    id: SessionId,
    /// Seed-chain key: frame `i` runs under
    /// `el_uavsim::seedchain::frame_seed(frame_chain, i)`.
    frame_chain: u64,
    /// Ground-pixel position of this stream's frames in the fleet's
    /// shared coordinate system (the risk map's frame of reference).
    geo_origin_px: Point,
    next_frame: usize,
    pub(crate) ws: Workspace,
    drift: Option<DriftTracker>,
    inbox: VecDeque<FrameTicket>,
    log: Vec<FrameRecord>,
    decision_fp: Fingerprint,
    audit_fp: Fingerprint,
    audit_history: VecDeque<AuditSummary>,
    latency: Histogram,
    frames: Counter,
    refusals: Counter,
    landings: Counter,
    aborts: Counter,
}

impl Session {
    pub(crate) fn new(
        id: SessionId,
        frame_chain: u64,
        geo_origin_px: Point,
        drift: Option<DriftConfig>,
    ) -> Self {
        Session {
            id,
            frame_chain,
            geo_origin_px,
            next_frame: 0,
            ws: Workspace::new(),
            drift: drift.map(DriftTracker::new),
            inbox: VecDeque::new(),
            log: Vec::new(),
            decision_fp: Fingerprint::new(),
            audit_fp: Fingerprint::new(),
            audit_history: VecDeque::new(),
            latency: Histogram::new(),
            frames: Counter::new(),
            refusals: Counter::new(),
            landings: Counter::new(),
            aborts: Counter::new(),
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Ground-pixel position of the stream's frame origin in the
    /// fleet's shared coordinate system.
    pub fn geo_origin_px(&self) -> Point {
        self.geo_origin_px
    }

    /// Frames currently queued.
    pub fn queued(&self) -> usize {
        self.inbox.len()
    }

    /// The decision log so far.
    pub fn log(&self) -> &[FrameRecord] {
        &self.log
    }

    /// Decision-log fingerprint (hex).
    pub fn decision_fp(&self) -> String {
        self.decision_fp.hex()
    }

    /// Audit-history fingerprint (hex).
    pub fn audit_fp(&self) -> String {
        self.audit_fp.hex()
    }

    /// The bounded audit history, oldest first.
    pub fn audit_history(&self) -> impl Iterator<Item = &AuditSummary> {
        self.audit_history.iter()
    }

    /// The drift tracker, if the session has one.
    pub fn drift(&self) -> Option<&DriftTracker> {
        self.drift.as_ref()
    }

    /// Assigns the next frame identity and queues the request; with the
    /// inbox at `cap`, the frame is refused immediately (logged, seed
    /// consumed) and `false` is returned.
    pub(crate) fn enqueue(&mut self, request: FrameRequest, cap: usize) -> bool {
        let frame = self.next_frame;
        self.next_frame += 1;
        let seed = el_uavsim::seedchain::frame_seed(self.frame_chain, frame);
        if self.inbox.len() >= cap {
            self.record_refusal(FrameTicket {
                frame,
                seed,
                request,
            });
            return false;
        }
        self.inbox.push_back(FrameTicket {
            frame,
            seed,
            request,
        });
        true
    }

    pub(crate) fn pop_ticket(&mut self) -> Option<FrameTicket> {
        self.inbox.pop_front()
    }

    /// Logs a refused frame. The clearance recorded is the requirement
    /// currently in force — a refused frame's wind observation is *not*
    /// fed to the drift tracker (the frame never entered the pipeline).
    pub(crate) fn record_refusal(&mut self, ticket: FrameTicket) {
        let clearance_px = self
            .drift
            .as_ref()
            .map(DriftTracker::required_clearance_px)
            .unwrap_or(f64::NAN);
        self.refusals.add_always(1);
        let record = FrameRecord {
            frame: ticket.frame,
            seed: ticket.seed,
            clearance_px,
            outcome: FrameOutcome::Refused,
        };
        self.absorb_decision(&record);
        self.log.push(record);
    }

    /// Feeds a frame's wind observation and returns the clearance (px)
    /// to propose under; `None` leaves the configured zone parameters
    /// untouched.
    pub(crate) fn clearance_for(&mut self, wind_mps: f64) -> Option<f64> {
        self.drift.as_mut().map(|d| d.observe(wind_mps))
    }

    /// Records a fully processed frame.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_decision(
        &mut self,
        frame: usize,
        seed: u64,
        clearance_px: f64,
        decision: FinalDecision,
        trials: Vec<Trial>,
        audit: Option<&AuditReport>,
        latency_ns: u64,
    ) {
        self.frames.add_always(1);
        match decision {
            FinalDecision::Land(_) => self.landings.add_always(1),
            FinalDecision::Abort(_) => self.aborts.add_always(1),
        }
        self.latency.record_ns(latency_ns);
        if let Some(report) = audit {
            let summary = AuditSummary::from_report(frame, report);
            self.absorb_audit(&summary);
            if self.audit_history.len() >= AUDIT_HISTORY_CAP {
                self.audit_history.pop_front();
            }
            self.audit_history.push_back(summary);
        }
        let record = FrameRecord {
            frame,
            seed,
            clearance_px,
            outcome: FrameOutcome::Decided { decision, trials },
        };
        self.absorb_decision(&record);
        self.log.push(record);
    }

    fn absorb_decision(&mut self, record: &FrameRecord) {
        let fp = &mut self.decision_fp;
        fp.usize(record.frame);
        fp.u64(record.seed);
        fp.f64(record.clearance_px);
        match &record.outcome {
            FrameOutcome::Refused => fp.tag(0),
            FrameOutcome::Decided { decision, trials } => {
                fp.tag(1);
                match decision {
                    FinalDecision::Land(c) => {
                        fp.tag(0);
                        fp.i64(c.center.x);
                        fp.i64(c.center.y);
                        fp.f64(c.clearance_px);
                        fp.usize(c.region_area);
                        fp.f64(c.score);
                    }
                    FinalDecision::Abort(reason) => {
                        fp.tag(1);
                        fp.tag(*reason as u8);
                    }
                }
                fp.usize(trials.len());
                for t in trials {
                    fp.tag(t.verdict as u8);
                    fp.f64(t.warning_fraction);
                }
            }
        }
    }

    fn absorb_audit(&mut self, s: &AuditSummary) {
        let fp = &mut self.audit_fp;
        fp.usize(s.frame);
        fp.f64(s.coverage);
        fp.f64(s.warning_fraction);
        fp.usize(s.regions);
        fp.tag(u8::from(s.complete));
    }

    /// The lifetime summary (also produced on close).
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            id: self.id,
            frames: self.frames.get(),
            refusals: self.refusals.get(),
            landings: self.landings.get(),
            aborts: self.aborts.get(),
            decision_fp: self.decision_fp.hex(),
            audit_fp: self.audit_fp.hex(),
            latency: self.latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_tracker_follows_wind() {
        let mut t = DriftTracker::new(DriftConfig {
            wind_alpha: 1.0,
            ..DriftConfig::medi_delivery()
        });
        let calm = t.observe(0.0);
        let windy = t.observe(6.0);
        assert!(windy > calm, "clearance grows with wind");
        // Non-finite observations are ignored, clearance unchanged.
        let after_nan = t.observe(f64::NAN);
        assert_eq!(after_nan, windy);
        assert_eq!(t.wind_mps(), 6.0);
        // Negative speeds clamp to zero.
        let mut t2 = DriftTracker::new(DriftConfig {
            wind_alpha: 1.0,
            ..DriftConfig::medi_delivery()
        });
        assert_eq!(t2.observe(-3.0), calm);
    }

    #[test]
    fn drift_ewma_smooths() {
        let cfg = DriftConfig {
            wind_alpha: 0.5,
            ..DriftConfig::medi_delivery()
        };
        let mut t = DriftTracker::new(cfg);
        t.observe(4.0);
        t.observe(0.0);
        assert!((t.wind_mps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drift_config_validates() {
        assert!(DriftConfig::medi_delivery().validate().is_ok());
        let mut bad = DriftConfig::medi_delivery();
        bad.wind_alpha = 0.0;
        assert!(bad.validate().is_err());
        bad.wind_alpha = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn frame_identity_survives_refusal() {
        // Seeds are position-keyed at submission: an inbox-overflow
        // refusal consumes its frame index, so the next frame's seed is
        // unchanged by the refusal.
        let mut s = Session::new(0, 99, Point::new(0, 0), None);
        let img = Image::new(4, 4, [0.0, 0.0, 0.0]);
        let req = || FrameRequest {
            image: img.clone(),
            wind_mps: 0.0,
        };
        assert!(s.enqueue(req(), 1));
        assert!(!s.enqueue(req(), 1), "second frame overflows cap 1");
        assert!(s.pop_ticket().is_some());
        assert!(s.enqueue(req(), 1));
        let mut seeds: Vec<u64> = s.log().iter().map(|r| r.seed).collect();
        seeds.extend(s.pop_ticket().map(|t| t.seed));
        // Refused frame logged with frame index 1; queued frames 0 and 2.
        assert_eq!(s.log().len(), 1);
        assert_eq!(s.log()[0].frame, 1);
        assert_eq!(
            seeds[0],
            el_uavsim::seedchain::frame_seed(99, 1),
            "refusal carries its own position-keyed seed"
        );
        assert_eq!(seeds[1], el_uavsim::seedchain::frame_seed(99, 2));
    }
}
