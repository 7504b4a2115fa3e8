//! Property tests of the fleet ground-risk map (the ISSUE 9 tentpole):
//!
//! - the shared map's fingerprint is bit-identical at 1, 2 and 8 worker
//!   threads, and across a process re-execution of the same binary;
//! - a risk map that accumulates but never screens
//!   ([`RiskSettings::advisory`]) leaves every stream's decision log,
//!   trials and seeds byte-identical to running with no map at all —
//!   the veto-before-verify bit-identity contract;
//! - with screening thresholds hot enough to fire, the screen itself is
//!   deterministic across thread counts (same vetoes, same logs, same
//!   map), so the feedback loop map → proposal → audit → map converges
//!   identically everywhere.

use std::sync::Arc as StdArc;

use certel::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::with_thread_count;

/// A briefly trained small net (an untrained net proposes no candidates
/// and audits find nothing — every property here would hold vacuously).
fn fleet_net() -> StdArc<MsdNet> {
    static NET: std::sync::OnceLock<StdArc<MsdNet>> = std::sync::OnceLock::new();
    NET.get_or_init(|| {
        let mut config = DatasetConfig::small(3);
        config.n_train = 6;
        config.n_test = 1;
        config.n_ood = 1;
        let dataset = Dataset::generate(&config);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net_cfg = MsdNetConfig {
            branch_channels: 8,
            head_hidden: 16,
            dilations: vec![1, 2],
            ..MsdNetConfig::tiny()
        };
        let mut net = MsdNet::new(&net_cfg, &mut rng);
        let train = TrainConfig {
            steps: 600,
            tile: 32,
            lr: 3e-3,
            class_weighted: true,
            augment: false,
            seed: 7,
        };
        Trainer::new(train).train(&mut net, &dataset);
        StdArc::new(net)
    })
    .clone()
}

const STREAMS: usize = 3;
const FRAMES: usize = 3;
const BASE_SEED: u64 = 901;

/// Everything a fleet run exposes for bit-exact comparison.
#[derive(Debug, Clone, PartialEq)]
struct FleetResult {
    /// `(log_json, decision_fp, audit_fp)` per stream, in stream order.
    rows: Vec<(String, String, String)>,
    /// The map snapshot (hot cells at the veto threshold), if a map ran.
    map: Option<RiskMapSnapshot>,
    vetoes: usize,
    deprioritized: usize,
}

/// Runs the standard fleet load (shared terrain, audits on) under the
/// given risk-map settings and captures per-stream state plus the map.
fn run_fleet(net: StdArc<MsdNet>, riskmap: Option<RiskSettings>) -> FleetResult {
    let mut pipeline = PipelineConfig::fast_test().with_audit(AuditConfig::fast_test());
    pipeline.monitor.max_warning_fraction = 0.25;
    let config = ServeConfig {
        pipeline,
        admission: AdmissionConfig::unlimited(),
        drift: Some(DriftConfig::medi_delivery()),
        audit_clock: TickClock::Zero,
        max_inbox: FRAMES,
        riskmap,
        precision: el_serve::AuditPrecision::exact(),
    };
    let mut service = ElService::try_new(net, config).expect("valid serve config");
    let mut load = LoadConfig::smoke(STREAMS, FRAMES, BASE_SEED);
    load.terrain = TerrainMode::SharedFleet;
    let streams = generate_streams(&load);
    let ids: Vec<_> = streams
        .iter()
        .map(|s| service.open_session(s.frame_chain))
        .collect();
    let mut vetoes = 0;
    let mut deprioritized = 0;
    for round in 0..FRAMES {
        for (id, stream) in ids.iter().zip(&streams) {
            service
                .submit(*id, stream.frames[round].clone())
                .expect("open session");
        }
        let report = service.tick();
        vetoes += report.vetoes;
        deprioritized += report.deprioritized;
    }
    let rows = ids
        .iter()
        .map(|id| {
            let s = service.session(*id).expect("session still open");
            (
                serde_json::to_string(&s.log().to_vec()).expect("log serializes"),
                s.decision_fp(),
                s.audit_fp(),
            )
        })
        .collect();
    FleetResult {
        rows,
        map: service.riskmap_snapshot(),
        vetoes,
        deprioritized,
    }
}

#[test]
fn map_fingerprint_is_bit_identical_across_thread_counts() {
    let net = fleet_net();
    let settings = RiskSettings::fast_test();
    let one = with_thread_count(1, || run_fleet(net.clone(), Some(settings.clone())));
    let map = one.map.as_ref().expect("map configured");
    assert!(
        map.ingested > 0,
        "the fleet load must actually feed the map (audits found no regions)"
    );
    assert_eq!(map.tick as usize, FRAMES, "one map tick per service tick");
    for threads in [2, 8] {
        let many = with_thread_count(threads, || run_fleet(net.clone(), Some(settings.clone())));
        assert_eq!(
            one, many,
            "fleet state (logs, map fingerprint) diverges at {threads} threads"
        );
    }
}

#[test]
fn advisory_map_changes_nothing() {
    // Veto-before-verify bit-identity: screening with infinite
    // thresholds is the identity, so a map that merely *accumulates*
    // must leave decisions, trials and seeds byte-identical to no map.
    let net = fleet_net();
    let advisory = with_thread_count(2, || run_fleet(net.clone(), Some(RiskSettings::advisory())));
    let bare = with_thread_count(2, || run_fleet(net.clone(), None));
    assert_eq!(advisory.vetoes, 0, "advisory policy must never veto");
    assert_eq!(advisory.deprioritized, 0, "advisory policy must not demote");
    assert_eq!(
        advisory.rows, bare.rows,
        "advisory risk map changed a stream's decision log"
    );
    let map = advisory.map.expect("advisory map present");
    assert!(
        map.ingested > 0,
        "the advisory map must still accumulate audit regions"
    );
    assert!(bare.map.is_none(), "map-off run must not carry a map");
}

#[test]
fn hot_screening_is_deterministic_across_thread_counts() {
    // Thresholds low enough that any accumulated heat under a candidate
    // fires the screen; the point is not *whether* it fires (terrain
    // dependent) but that the whole feedback loop — map state feeding
    // proposals feeding the map — lands on identical bits everywhere.
    let net = fleet_net();
    let mut settings = RiskSettings::fast_test();
    settings.policy = RiskConfig {
        deprioritize_heat: 1e-9,
        veto_heat: 1e-6,
    };
    let one = with_thread_count(1, || run_fleet(net.clone(), Some(settings.clone())));
    assert!(
        one.map.as_ref().expect("map configured").ingested > 0,
        "screening test needs a heated map"
    );
    for threads in [2, 8] {
        let many = with_thread_count(threads, || run_fleet(net.clone(), Some(settings.clone())));
        assert_eq!(
            (one.vetoes, one.deprioritized),
            (many.vetoes, many.deprioritized),
            "screen counts diverge at {threads} threads"
        );
        assert_eq!(
            one, many,
            "hot-screen fleet state diverges at {threads} threads"
        );
    }
}

/// Environment flag that switches this test binary into "print the
/// fingerprint and exit" mode for the child process spawned below.
const RISKMAP_CHILD_ENV: &str = "EL_RISKMAP_REPLAY_CHILD";

fn combined_fingerprint() -> String {
    let result = run_fleet(fleet_net(), Some(RiskSettings::fast_test()));
    let mut fp = el_metrics::Fingerprint::new();
    for (log, decision_fp, audit_fp) in &result.rows {
        fp.bytes(log.as_bytes());
        fp.bytes(decision_fp.as_bytes());
        fp.bytes(audit_fp.as_bytes());
    }
    let map = result.map.expect("map configured");
    fp.bytes(map.fingerprint.as_bytes());
    fp.hex()
}

#[test]
fn map_fingerprint_survives_process_reexecution() {
    if std::env::var(RISKMAP_CHILD_ENV).is_ok() {
        // Child mode: the parent scrapes this marker from our stdout.
        println!("RISKMAP_FP={}", combined_fingerprint());
        return;
    }
    let local = combined_fingerprint();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "map_fingerprint_survives_process_reexecution",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(RISKMAP_CHILD_ENV, "1")
        .output()
        .expect("spawn riskmap replay child");
    assert!(
        out.status.success(),
        "riskmap replay child failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may emit the line mid-stream, so scrape by marker.
    let fp = stdout
        .split("RISKMAP_FP=")
        .nth(1)
        .map(|rest| &rest[..16])
        .unwrap_or_else(|| panic!("no fingerprint from riskmap child:\n{stdout}"));
    assert_eq!(
        fp, local,
        "map fingerprint diverges across process invocations"
    );
}
