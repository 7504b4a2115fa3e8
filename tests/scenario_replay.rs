//! Replay-determinism and statistical-power guarantees of the scenario
//! subsystem (the ISSUE 6 contract):
//!
//! - same scenario + seed → bit-identical `CampaignReport` and event-log
//!   fingerprint, across thread counts and across process invocations;
//! - inserting one scheduled fault leaves every other mission's event log
//!   byte-identical (scheduled faults consume no stochastic RNG draws);
//! - an underpowered campaign comes back explicitly flagged instead of
//!   silently reporting a clean severity table (the PR 2 `stress()`
//!   failure mode);
//! - every committed scenario file loads, validates, and has a golden
//!   fingerprint entry.
//!
//! Fingerprints here are *self-relative* (this build against itself).
//! The absolute golden values in `scenarios/goldens.json` are checked by
//! CI's scenario replay steps. `ScenarioOutcome::fingerprint` hashes a
//! canonical byte encoding (float bits, fixed field order), so the same
//! goldens hold on every architecture: CI replays them natively on
//! x86_64 and under qemu on aarch64.

use certel::prelude::*;

mod common;
use common::with_thread_count;

/// A fast deterministic scenario for replay tests (SmallTest profile so
/// debug-mode CI stays quick).
fn replay_scenario() -> Scenario {
    Scenario::from_json(
        r#"{
            "name": "replay-test",
            "missions": 12,
            "base_seed": 2024,
            "mission": { "profile": "SmallTest" },
            "faults": [
                { "hazard": "TemporaryServiceLoss", "at_time_s": 10.0, "duration_s": 4.0 }
            ]
        }"#,
    )
    .expect("replay scenario is valid")
}

#[test]
fn replay_is_bit_identical_across_thread_counts() {
    let scenario = replay_scenario();
    let one = with_thread_count(1, || scenario.run().unwrap());
    for threads in [2, 4, 7] {
        let many = with_thread_count(threads, || scenario.run().unwrap());
        assert_eq!(
            one.report, many.report,
            "CampaignReport diverges at {threads} threads"
        );
        assert_eq!(one, many, "ScenarioOutcome diverges at {threads} threads");
        assert_eq!(
            one.fingerprint(),
            many.fingerprint(),
            "fingerprint diverges at {threads} threads"
        );
    }
}

/// Environment flag that switches this test binary into "print the
/// fingerprint and exit" mode for the child process spawned below.
const REPLAY_CHILD_ENV: &str = "EL_SCENARIO_REPLAY_CHILD";

#[test]
fn replay_is_bit_identical_across_process_invocations() {
    if std::env::var(REPLAY_CHILD_ENV).is_ok() {
        // Child mode: the parent scrapes this marker from our stdout.
        println!(
            "SCENARIO_FP={}",
            replay_scenario().run().unwrap().fingerprint_hex()
        );
        return;
    }
    let local = replay_scenario().run().unwrap().fingerprint_hex();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "replay_is_bit_identical_across_process_invocations",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(REPLAY_CHILD_ENV, "1")
        .output()
        .expect("spawn replay child");
    assert!(
        out.status.success(),
        "replay child failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may emit the line mid-stream, so scrape by marker.
    let fp = stdout
        .split("SCENARIO_FP=")
        .nth(1)
        .map(|rest| &rest[..16])
        .unwrap_or_else(|| panic!("no fingerprint from replay child:\n{stdout}"));
    assert_eq!(fp, local, "fingerprint diverges across process invocations");
}

#[test]
fn scheduled_fault_insertion_leaves_other_missions_byte_identical() {
    let baseline = replay_scenario();
    let before = baseline.run().unwrap();
    let mut with_fault = baseline.clone();
    with_fault.faults.push(ScheduledFault {
        hazard: HazardCategory::LossOfControl,
        at_time_s: 20.0,
        duration_s: None,
        missions: Some(vec![5]),
    });
    let after = with_fault.run().unwrap();
    let mut changed = 0;
    for i in 0..baseline.missions {
        let (b, a) = (&before.logs[i], &after.logs[i]);
        if i == 5 {
            assert_ne!(b, a, "the targeted mission must observe its fault");
            changed += 1;
        } else {
            // Byte-identical, not just structurally equal: the scheduled
            // fault consumed no draws from any other mission's stream.
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(a).unwrap(),
                "mission {i} perturbed by a fault scheduled for mission 5"
            );
        }
    }
    assert_eq!(changed, 1);
}

#[test]
fn underpowered_campaign_is_flagged_not_silent() {
    // The PR 2 `stress()` failure mode: 5 missions x 120 s at stress
    // rates expects ~0.67 loss-of-control and ~0.33 fly-away events —
    // far below any reasonable floor. The old fixed-seed campaign drew
    // zero FT-prescribing events and reported a clean severity table;
    // the power section must now call that out explicitly.
    let scenario = Scenario::from_json(
        r#"{
            "name": "underpowered",
            "missions": 5,
            "base_seed": 7,
            "mission": { "profile": "SmallTest" },
            "power": { "min_events_per_hazard": 3.0, "confidence": 0.95 }
        }"#,
    )
    .unwrap();
    let report = scenario.run().unwrap().report;
    let power = report.power.expect("scenario runs always compute power");
    assert!(
        power.underpowered,
        "a 5-mission stress campaign must be flagged underpowered"
    );
    for hazard in [HazardCategory::LossOfControl, HazardCategory::FlyAway] {
        let h = power
            .hazards
            .iter()
            .find(|h| h.hazard == hazard)
            .unwrap_or_else(|| panic!("{hazard:?} active under stress rates"));
        assert!(
            h.underpowered,
            "{hazard:?} expects {} events (< floor {}) and must be flagged",
            h.expected_events, power.min_events_floor
        );
        assert!(h.expected_events < 3.0);
    }
    // The severity table is still reported — flagged, not suppressed.
    assert_eq!(report.severity_histogram.iter().sum::<usize>(), 5);
}

#[test]
fn committed_scenarios_load_validate_and_declare_goldens() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let goldens_text = std::fs::read_to_string(format!("{root}/goldens.json"))
        .expect("scenarios/goldens.json is committed");
    let goldens = serde_json::parse_value(&goldens_text).expect("goldens.json parses");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(root).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.file_name().is_some_and(|n| n == "goldens.json")
            || path.extension().is_none_or(|e| e != "json")
        {
            continue;
        }
        let scenario = Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            scenario.missions >= 100,
            "{}: committed campaigns must have real statistical power",
            scenario.name
        );
        match goldens.get(&scenario.name) {
            Some(serde::Value::Str(hex)) => assert_eq!(
                hex.len(),
                16,
                "{}: golden must be a 16-digit hex fingerprint",
                scenario.name
            ),
            other => panic!(
                "scenarios/goldens.json entry missing or malformed for `{}`: {other:?}",
                scenario.name
            ),
        }
        names.push(scenario.name);
    }
    names.sort();
    assert_eq!(
        names,
        ["degraded_el", "fault_storm", "nominal", "storm_wind"],
        "the four ISSUE 6 regime files must stay committed"
    );
}

#[test]
fn committed_fault_storm_schedule_is_consumed() {
    // Run a 10-mission slice of the committed fault-storm scenario and
    // check the scheduled faults actually land in the event logs with
    // scheduled=true (the declarative layer reaches the mission loop).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fault_storm.json");
    let mut scenario = Scenario::load(path).unwrap();
    scenario.missions = 10;
    for fault in &mut scenario.faults {
        if let Some(targets) = &mut fault.missions {
            targets.retain(|&m| m < 10);
        }
    }
    let outcome = scenario.run().unwrap();
    let mut missions_with_scheduled = 0;
    let mut total_scheduled = 0;
    for record in &outcome.logs {
        let mut in_mission = 0;
        for event in &record.log {
            if let MissionEvent::Fault {
                scheduled: true,
                at_time_s,
                ..
            } = event
            {
                // Only the declared injection times may appear.
                assert!(
                    [60.0, 300.0, 450.0].contains(at_time_s),
                    "mission {}: scheduled fault at undeclared time {at_time_s}",
                    record.index
                );
                in_mission += 1;
            }
        }
        missions_with_scheduled += usize::from(in_mission > 0);
        total_scheduled += in_mission;
    }
    // A mission that terminates before t=60 s never reaches its scheduled
    // faults, so not all 10 log one — but the schedule must visibly reach
    // the fleet, including missions composing several scheduled faults.
    assert!(
        missions_with_scheduled >= 5,
        "only {missions_with_scheduled}/10 missions saw a scheduled fault"
    );
    assert!(
        total_scheduled > missions_with_scheduled,
        "no mission composed multiple scheduled faults ({total_scheduled} total)"
    );
}
