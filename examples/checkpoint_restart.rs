//! Checkpoint, "crash", and restart on a different machine size.
//!
//! Paper §2.1: migratability gives Charm++ "automatic checkpointing,
//! fault tolerance, and the ability to shrink and expand the set of
//! processors".  This demo runs LeanMD on 4 PEs, snapshots it at a
//! barrier halfway through, abandons the run ("crash"), then restarts
//! the snapshot on 2 PEs (shrink) — and shows the final trajectories are
//! bit-identical to an uninterrupted run.
//!
//! ```sh
//! cargo run --release --example checkpoint_restart
//! ```

use gridmdo::apps::leanmd::{self, MdConfig};
use gridmdo::prelude::*;
use gridmdo::runtime::checkpoint::Snapshot;
use std::sync::{Arc, Mutex};

fn main() {
    let mut cfg = MdConfig::validation(3, 5, 8); // 27 cells, real physics, 8 steps
    cfg.lb_period = Some(4); // barrier (= checkpoint point) after step 4

    println!("LeanMD, 27 cells + 378 cell-pairs, real force kernels, 8 steps\n");

    // Reference: uninterrupted 8-step run on 4 PEs.
    let full =
        leanmd::run_sim(cfg.clone(), NetworkModel::two_cluster_sweep(4, Dur::from_millis(2)), RunConfig::default());
    println!("[1] uninterrupted run (4 PEs)    : kinetic = {:.9}", full.kinetic);

    // Run again, snapshotting at the step-4 barrier; pretend we crash
    // afterwards (we simply stop caring about this run's result).
    let sink: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let _crashed = leanmd::run_sim_full(
        cfg.clone(),
        SimEngine::new(NetworkModel::two_cluster_sweep(4, Dur::from_millis(2)), RunConfig::default()),
        Some(Arc::clone(&sink)),
        None,
    );
    let snapshot = sink.lock().expect("sink")[0].clone();
    println!(
        "[2] checkpointed at step 4       : snapshot holds {} objects, {} bytes",
        snapshot.total_elems(),
        snapshot.encode().len()
    );

    // Save / reload through a file, as a real restart would.
    let path = std::env::temp_dir().join("gridmdo-demo.ckpt");
    snapshot.save(&path).expect("save snapshot");
    let reloaded = Snapshot::load(&path).expect("load snapshot");
    println!("[3] snapshot round-tripped to    : {}", path.display());

    // Restart on HALF the machine (shrink 4 -> 2 PEs) and finish.
    let mut restored_cfg = cfg.clone();
    restored_cfg.lb_period = None; // no more barriers needed
    let restored = leanmd::run_sim_full(
        restored_cfg,
        SimEngine::new(NetworkModel::two_cluster_sweep(2, Dur::from_millis(8)), RunConfig::default()),
        None,
        Some(reloaded),
    );
    println!("[4] restarted on 2 PEs           : kinetic = {:.9}", restored.kinetic);

    assert_eq!(restored.checksums, full.checksums, "trajectories must match bit-for-bit");
    assert_eq!(restored.kinetic, full.kinetic);
    println!("\nOK: the shrunk restart finished with *bit-identical* trajectories.");
    let _ = std::fs::remove_file(path);
}
