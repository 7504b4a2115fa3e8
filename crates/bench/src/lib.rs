//! Shared fixtures for the benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper. The
//! perception benches share a deterministic benchmark dataset and a
//! trained model; training is deterministic, so the trained weights are
//! cached on disk under `target/` to keep `cargo bench` iteration fast.

use std::path::PathBuf;
use std::sync::OnceLock;

use el_scene::{Dataset, DatasetConfig};
use el_seg::{MsdNet, MsdNetConfig, TrainConfig, Trainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The dataset seed shared by every experiment.
pub const BENCH_SEED: u64 = 1;

/// The benchmark dataset (generated once per process).
pub fn benchmark_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| Dataset::generate(&DatasetConfig::benchmark(BENCH_SEED)))
}

fn cache_path() -> PathBuf {
    // Benches run with the package directory as cwd; resolve the
    // workspace target dir from the manifest location instead.
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    PathBuf::from(target).join("el-bench-trained-model.json")
}

/// The trained benchmark model.
///
/// Training is fully deterministic (`TrainConfig::benchmark` on the
/// benchmark dataset), so the weights are cached as JSON under `target/`;
/// delete that file to force a retrain.
pub fn trained_model() -> MsdNet {
    static JSON: OnceLock<String> = OnceLock::new();
    let json = JSON.get_or_init(|| {
        let path = cache_path();
        if let Ok(json) = std::fs::read_to_string(&path) {
            if MsdNet::from_json(&json).is_ok() {
                eprintln!(
                    "[el-bench] loaded cached trained model from {}",
                    path.display()
                );
                return json;
            }
        }
        eprintln!("[el-bench] training benchmark model (deterministic, cached after)...");
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = MsdNet::new(&MsdNetConfig::default_uavid(), &mut rng);
        Trainer::new(TrainConfig::benchmark()).train(&mut net, benchmark_dataset());
        let json = net.to_json();
        let _ = std::fs::write(&path, &json);
        json
    });
    MsdNet::from_json(json).expect("cached model parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_benchmark_sized() {
        let ds = benchmark_dataset();
        assert!(ds.samples.len() >= 20);
    }
}
