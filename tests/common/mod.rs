//! Helpers shared by the integration-test binaries (not itself a test
//! binary — cargo only compiles `tests/<name>/mod.rs` when included via
//! `mod <name>;`). Each binary uses a subset of them.
#![allow(dead_code)]

use std::sync::Mutex;

/// Serializes every test that mutates `RAYON_NUM_THREADS` (process-wide
/// state; the test binary runs tests on multiple threads).
static THREAD_ENV: Mutex<()> = Mutex::new(());

/// Runs `f` with `RAYON_NUM_THREADS` pinned to `threads` (the rayon
/// shim reads it per call, so one process can compare thread counts).
pub fn with_thread_count<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = THREAD_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Mirrors the tiled Bayesian sweep's documented predictive-admission
/// policy for a fake clock that ticks +1.0 per admission poll: one tile
/// is admitted per poll, so each poll-to-poll delta is one tile's cost.
/// Admission bootstraps on the raw `elapsed < budget` check until the
/// first delta exists, then stops when `elapsed + avg >= budget`, with
/// `avg` an EWMA (alpha 0.5) of those deltas. The sweep's own clock polls
/// are the single source of time, so the expected admitted-tile count is
/// an exact function of the budget and the plan size.
///
/// Kept in lockstep with `el_monitor::tiledbayes` — a change to the
/// admission policy must change this simulator, which is the point: the
/// fake-clock tests then fail loudly instead of silently re-deriving
/// whatever the implementation does.
pub fn expected_admitted(budget_s: f64, tiles_total: usize) -> usize {
    let mut t = -1.0f64;
    let mut clock = move || {
        t += 1.0;
        t
    };
    let mut avg: Option<f64> = None;
    let mut last_poll: Option<f64> = None;
    let mut admitted = 0usize;
    while admitted < tiles_total {
        let now = clock();
        if let Some(prev) = last_poll {
            let cost = (now - prev).max(0.0);
            avg = Some(match avg {
                None => cost,
                Some(a) => a + 0.5 * (cost - a),
            });
        }
        last_poll = Some(now);
        if now + avg.unwrap_or(0.0) >= budget_s {
            break;
        }
        admitted += 1;
    }
    admitted
}
