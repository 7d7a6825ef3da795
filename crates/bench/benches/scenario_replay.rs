//! Macro-benchmark: scenario-suite compilation, fleet replay, and durable
//! snapshot round-trip.
//!
//! Three phases over the canned [`suites::FLEET_STRESS`] scenario:
//!
//! * **compile** — parse + expand the suite serially and with N worker
//!   threads; the two compilations must be *bit-identical* (the determinism
//!   the experiment runners and the chaos bench rely on), and the wall-clock
//!   ratio is reported;
//! * **replay** — drive the compiled stream through a sharded fleet epoch
//!   (optimize → simulate → ingest → retrain → publish per shard) and report
//!   end-to-end jobs/sec;
//! * **snapshot** — persist every warm shard with `save_snapshots`, restore
//!   with `load_snapshots`, and assert the round trip is byte-identical and
//!   serves the saved versions; then corrupt the bytes (bad magic, truncation)
//!   and assert span-exact rejection with no panic.
//!
//! Writes `BENCH_scenario.json` at the workspace root (also in `--smoke` mode
//! — CI asserts the file is fresh, well-formed, and that the identity and
//! rejection invariants all held).

use std::sync::Arc;
use std::time::Instant;

use cleo_bench::context::BenchMeta;
use cleo_core::feedback::{
    FeedbackConfig, ShardedFeedbackConfig, ShardedFeedbackLoop, WindowEviction,
};
use cleo_core::registry::ModelRegistry;
use cleo_core::scenario::{compile_str, suites};
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::TrainerConfig;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_optimizer::HeuristicCostModel;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let meta = BenchMeta::capture(2);
    let (cores, degraded) = (meta.cores, meta.degraded);
    let threads = cores.clamp(2, 8);

    // Phase 1 — compile: serial vs parallel, asserted bit-identical.  The
    // smoke run still compiles every canned suite once so CI covers all of
    // them; the timed loop sticks to the stress suite.
    for src in [
        suites::FLEET_STRESS,
        suites::COLD_START_STORM,
        suites::DRIFT_RAMP,
    ] {
        compile_str(src, threads).expect("canned suites always compile");
    }
    let reps = if smoke { 2 } else { 20 };
    let t0 = Instant::now();
    let mut serial = None;
    for _ in 0..reps {
        serial = Some(compile_str(suites::FLEET_STRESS, 1).expect("compile x1"));
    }
    let compile_1t_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
    let t0 = Instant::now();
    let mut parallel = None;
    for _ in 0..reps {
        parallel = Some(compile_str(suites::FLEET_STRESS, threads).expect("compile xN"));
    }
    let compile_nt_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;
    let (serial, parallel) = (serial.unwrap(), parallel.unwrap());
    assert_eq!(
        serial.workloads, parallel.workloads,
        "1-thread and {threads}-thread compilations must be bit-identical"
    );
    let compiled = parallel;
    let total_jobs = compiled.total_jobs();
    let n_clusters = compiled.clusters().len();

    // Phase 2 — replay the stream through a sharded fleet epoch.
    let profiles = compiled.profiles();
    let registry = Arc::new(ShardedRegistry::new(compiled.clusters()));
    let router = Arc::new(ClusterRouter::new(
        Arc::clone(&registry),
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(total_jobs.max(64)),
                correlation_tolerance: 10.0,
                error_tolerance_pct: 1e12,
                trainer: TrainerConfig {
                    threads: 2,
                    ..TrainerConfig::default()
                },
                ..FeedbackConfig::default()
            },
            shard_threads: threads.min(n_clusters),
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );
    let stream = compiled.stream();
    let t0 = Instant::now();
    let epoch = fleet.run_epoch(&stream).expect("fleet epoch");
    let replay_s = t0.elapsed().as_secs_f64();
    assert!(epoch.failed.is_empty(), "{:?}", epoch.failed);
    let published = epoch.published_count();
    let replay_jobs_per_sec = stream.len() as f64 / replay_s.max(1e-9);

    // Phase 3 — snapshot round trip.
    let dir = std::env::temp_dir().join(format!("cleo_bench_scenario_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let t0 = Instant::now();
    let saved = registry.save_snapshots(&dir).expect("save snapshots");
    let save_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let snapshot_bytes: u64 = saved
        .iter()
        .map(|c| {
            std::fs::metadata(dir.join(ShardedRegistry::snapshot_file_name(*c)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum();
    let t0 = Instant::now();
    let restored =
        ShardedRegistry::load_snapshots(compiled.clusters(), &dir).expect("load snapshots");
    let load_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // Byte identity: re-encoding every restored shard reproduces the file.
    let mut round_trip_byte_identical = true;
    for cluster in &saved {
        let on_disk =
            std::fs::read(dir.join(ShardedRegistry::snapshot_file_name(*cluster))).expect("read");
        let again = restored
            .shard(*cluster)
            .expect("restored shard")
            .snapshot_bytes()
            .expect("re-encode");
        round_trip_byte_identical &= on_disk == again;
        assert_eq!(
            restored.shard_version(*cluster),
            registry.shard_version(*cluster),
            "restored shard must serve the saved version"
        );
    }
    assert!(round_trip_byte_identical, "save→load→save must be stable");

    // Rejection: corrupting the bytes is a span-exact error, never a panic.
    let sample =
        std::fs::read(dir.join(ShardedRegistry::snapshot_file_name(saved[0]))).expect("read");
    let mut bad_magic = sample.clone();
    bad_magic[0] = b'X';
    let err = ModelRegistry::from_snapshot_bytes(&bad_magic).expect_err("bad magic rejected");
    let bad_magic_rejected = err.parse_span() == Some((0, 0, 4));
    let mut truncation_rejected = true;
    for len in (0..sample.len()).step_by((sample.len() / 64).max(1)) {
        truncation_rejected &= ModelRegistry::from_snapshot_bytes(&sample[..len]).is_err();
    }
    assert!(bad_magic_rejected, "bad magic must be a span-exact error");
    assert!(truncation_rejected, "every truncation must be rejected");
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = compile_1t_ms / compile_nt_ms.max(1e-9);
    println!(
        "\n== scenario_replay ==\nsuite `{}` ({n_clusters} clusters, {total_jobs} jobs over \
         {} days) on {cores} core(s) (degraded={degraded})\n\
         compile: {compile_1t_ms:.2}ms x1 / {compile_nt_ms:.2}ms x{threads} \
         [{speedup:.2}x, bit-identical]\n\
         replay: {} jobs in {replay_s:.2}s = {replay_jobs_per_sec:.0} jobs/sec, \
         {published} shards published\n\
         snapshot: {snapshot_bytes} bytes over {} shards; save {save_ms:.2}ms, \
         load {load_ms:.2}ms, round trip byte-identical\n\
         rejection: bad magic span-exact, truncation sweep all rejected",
        compiled.name,
        compiled.days,
        stream.len(),
        saved.len(),
    );

    let meta_fields = meta.json_fields();
    let json = format!(
        "{{\n  \"bench\": \"scenario_replay\",\n  \"smoke\": {smoke},\n  {meta_fields},\n  \
         \"suite\": \"{}\",\n  \"clusters\": {n_clusters},\n  \"days\": {},\n  \
         \"total_jobs\": {total_jobs},\n  \
         \"compile\": {{\"ms_1_thread\": {compile_1t_ms:.3}, \
         \"ms_n_threads\": {compile_nt_ms:.3}, \"threads\": {threads}, \
         \"speedup\": {speedup:.3}, \"thread_invariant\": true}},\n  \
         \"replay\": {{\"jobs\": {}, \"seconds\": {replay_s:.3}, \
         \"jobs_per_sec\": {replay_jobs_per_sec:.1}, \"shards_published\": {published}}},\n  \
         \"snapshot\": {{\"shards_saved\": {}, \"bytes\": {snapshot_bytes}, \
         \"save_ms\": {save_ms:.3}, \"load_ms\": {load_ms:.3}, \
         \"round_trip_byte_identical\": {round_trip_byte_identical}, \
         \"bad_magic_rejected\": {bad_magic_rejected}, \
         \"truncation_rejected\": {truncation_rejected}}}\n}}\n",
        compiled.name,
        compiled.days,
        stream.len(),
        saved.len(),
    );
    // Anchor the result file at the workspace root regardless of the bench cwd.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scenario.json");
    std::fs::write(&path, &json).expect("write BENCH_scenario.json");
    println!("wrote {}", path.display());
}
