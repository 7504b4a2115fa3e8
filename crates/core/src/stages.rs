//! The Figure 2 frame stages, shared by every pipeline shape.
//!
//! One frame runs three stages:
//!
//! 1. **plan** ([`plan_frame`]): the core function's deterministic
//!    segmentation, zone proposal, an optional risk screen, then the
//!    monitor crops (up to the trial budget) and the audit's tile
//!    priority;
//! 2. **verify** ([`Monitor::verify_frames`](el_monitor::Monitor::verify_frames)):
//!    one coalesced Monte-Carlo engine call over the borrowed crops of any number of frames, crop
//!    `i` of a frame seeded `batch_seed(frame_seed, i)`;
//! 3. **conclude**: the sequential decision replay
//!    ([`replay_decisions`](crate::pipeline::replay_decisions)) over the
//!    frame's verdicts, then the advisory whole-frame audit
//!    ([`audit_frame`]).
//!
//! [`ElPipeline`](crate::pipeline::ElPipeline) composes them for one
//! frame; the multi-stream service composes them for a tick's worth of
//! frames, with one `Monitor::verify_frames` call for all of them.
//! Because a crop's Monte-Carlo statistics depend only on its own pixels and seed
//! (the masks are coordinate-keyed), a frame decides identically
//! whichever composition runs it.

use el_geom::{LabelMap, Rect};
use el_nn::Workspace;
use el_scene::Image;
use el_seg::{segment_ws, MsdNet};

use crate::audit::{run_audit_with_clock, AuditReport};
use crate::monitorlink::crop_for_monitor;
use crate::pipeline::PipelineConfig;
use crate::zone::{propose_zones, screen_candidates, Candidate, RiskConfig, ZoneParams};

/// A risk screen applied to a frame's proposals before any crop or seed
/// is assigned: the screening policy and the accumulated heat under a
/// frame-local rectangle.
pub type Screen<'a> = (&'a RiskConfig, &'a dyn Fn(Rect) -> f64);

/// One frame after the plan stage.
#[derive(Debug, Clone)]
pub struct FramePlan {
    /// The core function's full-frame prediction.
    pub labels: LabelMap,
    /// The surviving candidates, in trial order.
    pub candidates: Vec<Candidate>,
    /// The monitor crops of the first `max_trials` candidates (empty when
    /// the pipeline is unmonitored).
    pub crops: Vec<Image>,
    /// Candidate rectangles steering the audit's tile order (empty when
    /// the audit is off).
    pub priority: Vec<Rect>,
    /// Candidates the risk screen removed.
    pub vetoed: usize,
    /// Candidates the risk screen demoted.
    pub deprioritized: usize,
}

/// The plan stage: segment `image`, propose zones under `zone`, apply the
/// optional risk `screen`, and cut the monitor crops and audit priority
/// that `config` asks for.
///
/// The screen reorders or removes candidates *before* any crop or seed is
/// assigned, so the surviving list flows through verification exactly as
/// a screen-free proposal of the same content would.
pub fn plan_frame(
    net: &MsdNet,
    image: &Image,
    config: &PipelineConfig,
    zone: &ZoneParams,
    screen: Option<Screen<'_>>,
    ws: &mut Workspace,
) -> FramePlan {
    let labels = segment_ws(net, image, ws).labels;
    let proposed = propose_zones(&labels, zone);
    let (candidates, vetoed, deprioritized) = match screen {
        Some((policy, heat)) => {
            let screen = screen_candidates(proposed, policy, heat);
            (screen.kept, screen.vetoed, screen.deprioritized)
        }
        None => (proposed, 0, 0),
    };
    let crops = if config.monitored {
        candidates
            .iter()
            .take(config.decision.max_trials)
            .map(|c| crop_for_monitor(c, config.monitor_margin_px, image))
            .collect()
    } else {
        Vec::new()
    };
    let priority = if config.audit.enabled {
        candidates.iter().map(|c| c.rect).collect()
    } else {
        Vec::new()
    };
    FramePlan {
        labels,
        candidates,
        crops,
        priority,
        vetoed,
        deprioritized,
    }
}

/// The audit half of the conclude stage: the advisory whole-frame sweep
/// when `config.audit` is enabled, `None` otherwise. Runs after the
/// decision is fixed; `elapsed_s` is the frame's clock (see
/// [`run_audit_with_clock`]).
pub fn audit_frame(
    net: &MsdNet,
    image: &Image,
    config: &PipelineConfig,
    seed: u64,
    priority: &[Rect],
    elapsed_s: impl FnMut() -> f64,
) -> Option<AuditReport> {
    config.audit.enabled.then(|| {
        run_audit_with_clock(
            net,
            image,
            &config.audit,
            &config.monitor.rule,
            seed,
            priority,
            elapsed_s,
        )
    })
}
