//! Mounting the Figure 2 perception pipeline into the flight simulator.

use el_core::{AuditReport, ElPipeline, FinalDecision};
use el_geom::{Rect, Vec2};
use el_scene::{Conditions, Scene};
use el_uavsim::{AuditAdvisory, ElSystem};

/// Adapts the real [`ElPipeline`] (MSDnet core function + Bayesian
/// monitor + decision module) to the simulator's [`ElSystem`] interface.
///
/// On an emergency-landing request, the adapter renders what the on-board
/// camera would see — a window of the scene around the UAV under the
/// mission's [`Conditions`] — runs the full Figure 2 loop on it, and maps
/// a confirmed zone back to metric scene coordinates. An abort decision
/// becomes `None`, which the safety switch escalates to flight
/// termination, exactly as the paper's architecture prescribes.
#[derive(Debug)]
pub struct PipelineElSystem {
    pipeline: ElPipeline,
    conditions: Conditions,
    /// The whole-frame audit of the most recent run (when audit mode is
    /// enabled on the pipeline) — the advisory escalation source the
    /// simulator's safety switch consults before committing a landing.
    last_audit: Option<AuditReport>,
}

impl PipelineElSystem {
    /// Wraps a pipeline; `conditions` model the lighting/weather at the
    /// time of the emergency (use [`Conditions::sunset`] for the paper's
    /// OOD scenario).
    pub fn new(pipeline: ElPipeline, conditions: Conditions) -> Self {
        PipelineElSystem {
            pipeline,
            conditions,
            last_audit: None,
        }
    }

    /// The rendering conditions.
    pub fn conditions(&self) -> &Conditions {
        &self.conditions
    }

    /// Borrows the inner pipeline.
    pub fn pipeline_mut(&mut self) -> &mut ElPipeline {
        &mut self.pipeline
    }

    /// The whole-frame audit report of the most recent
    /// [`ElSystem::select_landing`] call, if audit mode produced one.
    pub fn last_audit(&self) -> Option<&AuditReport> {
        self.last_audit.as_ref()
    }
}

impl ElSystem for PipelineElSystem {
    fn select_landing(
        &mut self,
        scene: &Scene,
        uav_xy_m: Vec2,
        view_radius_m: f64,
        seed: u64,
    ) -> Option<Vec2> {
        let mpp = scene.params.meters_per_pixel;
        // From anywhere over the scene, width + height pixels reach every
        // scene pixel; clamping there keeps `2 * view_px + 1` from
        // overflowing on huge radii without changing the clipped window.
        let reach = (scene.width() + scene.height()) as i64;
        let view_px = ((view_radius_m / mpp).round() as i64).min(reach);
        let cx = (uav_xy_m.x / mpp).round() as i64;
        let cy = (uav_xy_m.y / mpp).round() as i64;
        let window = Rect::new(cx - view_px, cy - view_px, 2 * view_px + 1, 2 * view_px + 1)
            .intersect(scene.labels.bounds());
        if window.is_empty() {
            return None;
        }
        // What the camera sees: the windowed scene under the mission's
        // conditions. Rendering the full scene and cropping keeps the
        // texture field identical to the world's.
        let full = scene.render(&self.conditions, seed);
        let image = full.crop(window).expect("window clipped to bounds");
        let outcome = self.pipeline.run(&image, seed);
        self.last_audit = outcome.audit;
        match outcome.decision {
            FinalDecision::Land(zone) => {
                let px = zone.center.x + window.x;
                let py = zone.center.y + window.y;
                Some(Vec2::new(px as f64 * mpp, py as f64 * mpp))
            }
            FinalDecision::Abort(_) => None,
        }
    }

    fn audit_advisory(&self) -> AuditAdvisory {
        match &self.last_audit {
            None => AuditAdvisory::Clear,
            Some(a) => AuditAdvisory::classify(a.coverage(), a.warning_fraction),
        }
    }

    fn name(&self) -> &'static str {
        "pipeline-el"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_core::PipelineConfig;
    use el_scene::SceneParams;
    use el_seg::{MsdNet, MsdNetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn adapter_with(config: PipelineConfig) -> PipelineElSystem {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = MsdNet::new(&MsdNetConfig::tiny(), &mut rng);
        PipelineElSystem::new(
            ElPipeline::try_new(net, config).expect("valid config"),
            Conditions::nominal(),
        )
    }

    fn adapter() -> PipelineElSystem {
        adapter_with(PipelineConfig::fast_test())
    }

    #[test]
    fn returns_point_inside_scene_or_none() {
        let scene = Scene::generate(&SceneParams::small(), 5);
        let mut el = adapter();
        let pick = el.select_landing(&scene, Vec2::new(24.0, 24.0), 20.0, 3);
        if let Some(p) = pick {
            let (w, h) = (
                scene.width() as f64 * scene.params.meters_per_pixel,
                scene.height() as f64 * scene.params.meters_per_pixel,
            );
            assert!(p.x >= 0.0 && p.x < w);
            assert!(p.y >= 0.0 && p.y < h);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let scene = Scene::generate(&SceneParams::small(), 6);
        let mut el = adapter();
        let a = el.select_landing(&scene, Vec2::new(20.0, 20.0), 18.0, 9);
        let b = el.select_landing(&scene, Vec2::new(20.0, 20.0), 18.0, 9);
        assert_eq!(a, b);
        assert_eq!(el.name(), "pipeline-el");
    }

    #[test]
    fn audit_mode_surfaces_advisory() {
        let mut el = adapter_with(
            PipelineConfig::fast_test().with_audit(el_core::audit::AuditConfig::fast_test()),
        );
        // Before any run there is no audit and the advisory defaults Clear.
        assert!(el.last_audit().is_none());
        assert_eq!(el.audit_advisory(), AuditAdvisory::Clear);
        let scene = Scene::generate(&SceneParams::small(), 5);
        let _ = el.select_landing(&scene, Vec2::new(24.0, 24.0), 20.0, 3);
        let audit = el.last_audit().expect("audit mode attaches a report");
        // The unlimited test budget audits the whole camera window, so
        // the advisory is classifiable (an untrained tiny net warns
        // widely — any grade is legal, it just must be derived).
        assert!(audit.is_complete());
        assert_eq!(
            el.audit_advisory(),
            AuditAdvisory::classify(audit.coverage(), audit.warning_fraction)
        );
    }

    #[test]
    fn huge_view_radius_selects_as_whole_scene_radius() {
        // Unmonitored, so the untrained net's first candidate lands and
        // the comparison is between two landing points, not two aborts.
        let landing = |radius_m: f64| {
            let scene = Scene::generate(&SceneParams::small(), 5);
            adapter_with(PipelineConfig::fast_test().unmonitored()).select_landing(
                &scene,
                Vec2::new(24.0, 24.0),
                radius_m,
                3,
            )
        };
        // 96 m is 192 px = width + height of the small scene: it already
        // covers the whole scene from any point over it.
        let covering = landing(96.0);
        assert!(covering.is_some());
        assert_eq!(landing(1e300), covering);
    }

    #[test]
    fn window_outside_scene_returns_none() {
        let scene = Scene::generate(&SceneParams::small(), 7);
        let mut el = adapter();
        let pick = el.select_landing(&scene, Vec2::new(-500.0, -500.0), 5.0, 0);
        assert_eq!(pick, None);
    }
}
