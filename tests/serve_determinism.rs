//! Determinism contract of the multi-stream service (the ISSUE 8
//! tentpole):
//!
//! - coalescing many streams' crops into one verification batch is
//!   bit-identical to running every stream through its own solo
//!   [`ElPipeline`], frame by frame — decisions, trials, warning
//!   fractions and audit summaries all match;
//! - N streams × K frames produce byte-identical per-stream decision
//!   logs and fingerprints at 1, 2 and 8 worker threads;
//! - the deterministic admission model refuses the *same* frames at
//!   every thread count, and refusals never shift surviving frames'
//!   seeds;
//! - fingerprints survive a process boundary (same binary re-executed);
//! - a malformed frame is a typed submission error that leaves every
//!   stream's log and fingerprints as if it had never been sent.

use std::sync::Arc as StdArc;

use certel::prelude::*;
use el_serve::{FrameOutcome, Session};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::with_thread_count;

/// A briefly trained small net, shared by every test in this binary (an
/// untrained net predicts no landable pixels — no candidates, no crops —
/// and the batching property would hold vacuously).
fn serve_net() -> StdArc<MsdNet> {
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

/// The audited configuration every test here serves under (the
/// benchmark-style warning tolerance keeps the Land path reachable).
fn serve_pipeline_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast_test().with_audit(AuditConfig::fast_test());
    config.monitor.max_warning_fraction = 0.25;
    config
}

const STREAMS: usize = 3;
const FRAMES: usize = 3;
const BASE_SEED: u64 = 901;

/// A bit-exact comparison key for an audit result (float *bits*, not
/// formatted decimals).
fn audit_key(coverage: f64, warning_fraction: f64, regions: usize, complete: bool) -> String {
    format!(
        "{:016x}:{:016x}:{regions}:{complete}",
        coverage.to_bits(),
        warning_fraction.to_bits()
    )
}

/// Runs the standard load through a service and returns each stream's
/// state as `(log_json, decision_fp, audit_fp)` — captured *before* the
/// sessions close, so the comparison covers the full per-frame log, not
/// just the digest. With `malformed` set, each round also submits a 0×0
/// frame, a NaN-wind frame and three copies of the round's frame with
/// one NaN, +inf or -inf pixel between the valid ones.
fn run_service(
    net: StdArc<MsdNet>,
    admission: el_serve::AdmissionConfig,
    malformed: bool,
) -> Vec<(String, String, String)> {
    let config = el_serve::ServeConfig {
        pipeline: serve_pipeline_config(),
        admission,
        drift: Some(DriftConfig::medi_delivery()),
        audit_clock: TickClock::Zero,
        max_inbox: FRAMES,
        riskmap: None,
        precision: el_serve::AuditPrecision::exact(),
    };
    let mut service = ElService::try_new(net, config).expect("valid serve config");
    let streams = generate_streams(&LoadConfig::smoke(STREAMS, FRAMES, BASE_SEED));
    let ids: Vec<_> = streams
        .iter()
        .map(|s| service.open_session(s.frame_chain))
        .collect();
    for round in 0..FRAMES {
        for (id, stream) in ids.iter().zip(&streams) {
            service
                .submit(*id, stream.frames[round].clone())
                .expect("open session");
            if malformed {
                let empty = FrameRequest {
                    image: certel::el_scene::Image::new(0, 0, [0.0; 3]),
                    wind_mps: 1.0,
                };
                let nan_wind = FrameRequest {
                    wind_mps: f64::NAN,
                    ..stream.frames[round].clone()
                };
                // A valid frame with one poisoned pixel, anywhere.
                let poisoned = |v: f32| {
                    let mut bad = stream.frames[round].clone();
                    let (w, h) = (bad.image.width(), bad.image.height());
                    bad.image[((round * 7) % w, (round * 13) % h)][round % 3] = v;
                    bad
                };
                for bad in [
                    empty,
                    nan_wind,
                    poisoned(f32::NAN),
                    poisoned(f32::INFINITY),
                    poisoned(f32::NEG_INFINITY),
                ] {
                    assert!(matches!(
                        service.submit(*id, bad),
                        Err(el_serve::ServeError::InvalidFrame(_))
                    ));
                }
            }
        }
        service.tick();
    }
    service.drain();
    ids.iter()
        .map(|id| {
            let s: &Session = service.session(*id).expect("session still open");
            (
                serde_json::to_string(&s.log().to_vec()).expect("log serializes"),
                s.decision_fp(),
                s.audit_fp(),
            )
        })
        .collect()
}

#[test]
fn coalesced_batching_matches_solo_pipelines() {
    let net = serve_net();
    let config = serve_pipeline_config();
    let streams = generate_streams(&LoadConfig::smoke(STREAMS, FRAMES, BASE_SEED));

    // Solo reference: one private pipeline per stream, frames in order,
    // same position-keyed seeds, zero audit clock. No drift tracker on
    // the service side, so both sides propose under the configured
    // clearance.
    let mut solo: Vec<Vec<(String, String, String)>> = Vec::new();
    for stream in &streams {
        let mut pipeline =
            ElPipeline::try_new((*net).clone(), config.clone()).expect("valid pipeline config");
        let mut outcomes = Vec::new();
        for (f, request) in stream.frames.iter().enumerate() {
            let seed = el_uavsim::frame_seed(stream.frame_chain, f);
            let out = pipeline.run_with_audit_clock(&request.image, seed, || 0.0);
            let audit = out.audit.as_ref().expect("audit enabled");
            outcomes.push((
                serde_json::to_string(&out.decision).unwrap(),
                serde_json::to_string(&out.trials).unwrap(),
                audit_key(
                    audit.coverage(),
                    audit.warning_fraction,
                    audit.regions.len(),
                    audit.is_complete(),
                ),
            ));
        }
        solo.push(outcomes);
    }

    // Service: all streams interleaved, crops coalesced across streams
    // into one verification batch per tick.
    let serve_config = el_serve::ServeConfig {
        pipeline: config,
        admission: el_serve::AdmissionConfig::unlimited(),
        drift: None,
        audit_clock: TickClock::Zero,
        max_inbox: FRAMES,
        riskmap: None,
        precision: el_serve::AuditPrecision::exact(),
    };
    let mut service = ElService::try_new(net.clone(), serve_config).expect("valid serve config");
    let ids: Vec<_> = streams
        .iter()
        .map(|s| service.open_session(s.frame_chain))
        .collect();
    for round in 0..FRAMES {
        for (id, stream) in ids.iter().zip(&streams) {
            service
                .submit(*id, stream.frames[round].clone())
                .expect("open session");
        }
        let report = service.tick();
        assert_eq!(report.admitted, STREAMS, "unlimited admission");
        assert!(
            report.crops > 0,
            "coalesced batch must actually carry crops"
        );
    }

    for (stream_idx, id) in ids.iter().enumerate() {
        let session = service.session(*id).expect("session open");
        let log = session.log();
        assert_eq!(log.len(), FRAMES);
        let audits: Vec<_> = session.audit_history().collect();
        assert_eq!(audits.len(), FRAMES, "audit enabled on every frame");
        for (f, record) in log.iter().enumerate() {
            assert_eq!(record.frame, f);
            assert_eq!(
                record.seed,
                el_uavsim::frame_seed(streams[stream_idx].frame_chain, f)
            );
            let FrameOutcome::Decided { decision, trials } = &record.outcome else {
                panic!("stream {stream_idx} frame {f} was refused under unlimited admission");
            };
            let (ref solo_decision, ref solo_trials, ref solo_audit) = solo[stream_idx][f];
            assert_eq!(
                &serde_json::to_string(decision).unwrap(),
                solo_decision,
                "stream {stream_idx} frame {f}: decision diverges from solo pipeline"
            );
            assert_eq!(
                &serde_json::to_string(trials).unwrap(),
                solo_trials,
                "stream {stream_idx} frame {f}: trials diverge from solo pipeline"
            );
            let a = audits[f];
            assert_eq!(
                &audit_key(a.coverage, a.warning_fraction, a.regions, a.complete),
                solo_audit,
                "stream {stream_idx} frame {f}: audit diverges from solo pipeline"
            );
        }
    }
}

#[test]
fn service_is_bit_identical_across_thread_counts() {
    let net = serve_net();
    let one = with_thread_count(1, || {
        run_service(net.clone(), el_serve::AdmissionConfig::unlimited(), false)
    });
    assert!(
        one.iter().any(|(log, _, _)| log.contains("Decided")),
        "load must process frames"
    );
    for threads in [2, 8] {
        let many = with_thread_count(threads, || {
            run_service(net.clone(), el_serve::AdmissionConfig::unlimited(), false)
        });
        assert_eq!(
            one, many,
            "per-stream logs/fingerprints diverge at {threads} threads"
        );
    }
}

#[test]
fn deterministic_admission_refuses_identically_across_thread_counts() {
    // A fixed synthetic cost of 0.4 s against a 1 s tick budget admits
    // exactly 2 of 3 drained frames per tick; the per-tick rotation
    // spreads the refusals across streams deterministically.
    let net = serve_net();
    let admission = el_serve::AdmissionConfig::fixed(1.0, 0.4);
    let one = with_thread_count(1, || run_service(net.clone(), admission, false));
    let refusals = one
        .iter()
        .map(|(log, _, _)| log.matches("\"Refused\"").count())
        .sum::<usize>();
    assert!(refusals > 0, "the fixed model must actually refuse frames");
    assert!(
        one.iter().any(|(log, _, _)| log.contains("Decided")),
        "the fixed model must still admit frames"
    );
    for threads in [2, 8] {
        let many = with_thread_count(threads, || run_service(net.clone(), admission, false));
        assert_eq!(one, many, "admission pattern diverges at {threads} threads");
    }
}

#[test]
fn malformed_frames_are_rejected_without_shifting_any_stream() {
    let net = serve_net();
    let clean = run_service(net.clone(), el_serve::AdmissionConfig::unlimited(), false);
    let with_malformed = run_service(net, el_serve::AdmissionConfig::unlimited(), true);
    assert_eq!(
        clean, with_malformed,
        "rejected frames changed a stream's log or fingerprints"
    );
}

/// Environment flag that switches this test binary into "print the
/// fingerprints and exit" mode for the child process spawned below.
const SERVE_CHILD_ENV: &str = "EL_SERVE_REPLAY_CHILD";

fn combined_fingerprint() -> String {
    let rows = run_service(serve_net(), el_serve::AdmissionConfig::unlimited(), false);
    let mut fp = el_serve::Fingerprint::new();
    for (log, decision_fp, audit_fp) in rows {
        fp.bytes(log.as_bytes());
        fp.bytes(decision_fp.as_bytes());
        fp.bytes(audit_fp.as_bytes());
    }
    fp.hex()
}

#[test]
fn service_is_bit_identical_across_process_invocations() {
    if std::env::var(SERVE_CHILD_ENV).is_ok() {
        // Child mode: the parent scrapes this marker from our stdout.
        println!("SERVE_FP={}", combined_fingerprint());
        return;
    }
    let local = combined_fingerprint();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "service_is_bit_identical_across_process_invocations",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(SERVE_CHILD_ENV, "1")
        .output()
        .expect("spawn serve replay child");
    assert!(
        out.status.success(),
        "serve replay child failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may emit the line mid-stream, so scrape by marker.
    let fp = stdout
        .split("SERVE_FP=")
        .nth(1)
        .map(|rest| &rest[..16])
        .unwrap_or_else(|| panic!("no fingerprint from serve child:\n{stdout}"));
    assert_eq!(fp, local, "fingerprint diverges across process invocations");
}
