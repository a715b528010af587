//! One-shot reproduction: run every table, figure, and ablation and write
//! the outputs under `results/`.
//!
//! Besides the per-experiment text files, a machine-readable
//! `BENCH_summary.json` is written with each experiment's wall time and a
//! canonical observability run (8-PE stencil) summarised as overlap
//! fraction, utilization and the full counter set — so CI and scripts can
//! track the reproduction without parsing tables.
//!
//! Usage: `reproduce_all [--out DIR] [--quick]`
//!
//! `--quick` trims step counts and skips the threaded-engine columns, for
//! a fast smoke reproduction (~seconds); the default settings match
//! EXPERIMENTS.md.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use mdo_apps::stencil::{self, StencilConfig};
use mdo_bench::{arg_flag, arg_value, mean_utilization, overlap_fraction};
use mdo_core::program::RunConfig;
use mdo_core::ObsConfig;
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = PathBuf::from(arg_value(&args, "--out").unwrap_or_else(|| "results".into()));
    let quick = arg_flag(&args, "--quick");
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let exe_dir = std::env::current_exe().expect("own path").parent().expect("bin directory").to_path_buf();

    // (binary, output file, extra args, quick extra args)
    let jobs: Vec<(&str, &str, Vec<&str>, Vec<&str>)> = vec![
        ("fig2_timeline", "fig2.txt", vec![], vec![]),
        ("fig3_stencil", "fig3.txt", vec![], vec!["--steps", "4", "--skip-real"]),
        ("table1_stencil", "table1.txt", vec![], vec!["--steps", "4", "--skip-real"]),
        ("fig4_leanmd", "fig4.txt", vec!["--contention", "0.1"], vec!["--steps", "2", "--contention", "0.1"]),
        ("table2_leanmd", "table2.txt", vec![], vec!["--steps", "2", "--skip-real"]),
        ("export_trace", "export_trace.txt", vec![], vec!["--steps", "4"]),
        ("ablation_bsp", "ablation_bsp.txt", vec![], vec!["--steps", "4"]),
        ("ablation_ghost", "ablation_ghost.txt", vec![], vec!["--steps", "8"]),
        ("ablation_lb", "ablation_lb.txt", vec![], vec![]),
        ("ablation_priority", "ablation_priority.txt", vec![], vec!["--steps", "4", "--skip-real"]),
        ("ablation_ampi", "ablation_ampi.txt", vec![], vec!["--steps", "4"]),
        ("ablation_md_lb", "ablation_md_lb.txt", vec![], vec!["--steps", "4"]),
        ("ablation_multicast", "ablation_multicast.txt", vec![], vec!["--steps", "2"]),
        ("ablation_failures", "ablation_failures.txt", vec![], vec!["--steps", "20"]),
        ("ablation_elastic", "ablation_elastic.txt", vec![], vec!["--steps", "6"]),
        ("ablation_overload", "ablation_overload.txt", vec![], vec!["--ticks", "20"]),
        ("ablation_collectives", "ablation_collectives.txt", vec![], vec!["--quick"]),
    ];

    let mut job_rows = Vec::new();
    for (bin, out_file, full_args, quick_args) in jobs {
        let exe = exe_dir.join(bin);
        assert!(exe.exists(), "{} not built; run `cargo build --release -p mdo-bench` first", exe.display());
        let elastic_json = out_dir.join("BENCH_elastic.json");
        let mut extra: Vec<&str> = if quick { quick_args } else { full_args };
        if bin == "export_trace" {
            // The exporter writes its artifacts next to the text outputs.
            extra.extend(["--out", out_dir.to_str().expect("utf-8 out dir")]);
        }
        if bin == "ablation_elastic" {
            // The elastic ablation writes its JSON next to the text outputs.
            extra.extend(["--out", elastic_json.to_str().expect("utf-8 out dir")]);
        }
        let overload_json = out_dir.join("BENCH_overload.json");
        if bin == "ablation_overload" {
            extra.extend(["--out", overload_json.to_str().expect("utf-8 out dir")]);
        }
        let collectives_json = out_dir.join("BENCH_collectives.json");
        if bin == "ablation_collectives" {
            extra.extend(["--out", collectives_json.to_str().expect("utf-8 out dir")]);
        }
        print!("running {bin:<22} -> {} ... ", out_dir.join(out_file).display());
        let started = Instant::now();
        let output = Command::new(&exe).args(extra.iter()).output().expect("spawn bench binary");
        let wall_s = started.elapsed().as_secs_f64();
        assert!(output.status.success(), "{bin} failed:\n{}", String::from_utf8_lossy(&output.stderr));
        std::fs::write(out_dir.join(out_file), &output.stdout).expect("write output");
        let lines = String::from_utf8_lossy(&output.stdout).lines().count();
        println!("ok ({lines} lines, {wall_s:.2} s)");
        job_rows.push(format!(
            "    {{\"name\": \"{bin}\", \"output\": \"{out_file}\", \"wall_s\": {wall_s:.3}, \"lines\": {lines}}}"
        ));
    }

    // Canonical observability run: the 8-PE stencil the acceptance checks
    // track, summarised with exact counters rather than parsed tables.
    let steps = if quick { 4 } else { 10 };
    let run_cfg = RunConfig { obs: Some(ObsConfig::new()), ..RunConfig::default() };
    let out = stencil::run_sim(
        StencilConfig::paper(64, steps),
        NetworkModel::two_cluster_sweep(8, Dur::from_millis(16)),
        run_cfg,
    );
    let obs = out.report.obs.as_ref().expect("observability armed");
    let counters: Vec<String> =
        obs.merged_counters().iter().map(|(c, v)| format!("      \"{}\": {v}", c.name())).collect();
    let summary = format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {quick},\n  \"experiments\": [\n{}\n  ],\n  \
         \"canonical_stencil_8pe_16ms\": {{\n    \"steps\": {steps},\n    \"ms_per_step\": {:.3},\n    \
         \"utilization\": {:.4},\n    \"overlap_fraction\": {:.4},\n    \"events\": {},\n    \
         \"counters\": {{\n{}\n    }}\n  }}\n}}\n",
        job_rows.join(",\n"),
        out.ms_per_step,
        mean_utilization(&out.report),
        overlap_fraction(&out.report),
        obs.total_events(),
        counters.join(",\n"),
    );
    let summary_path = out_dir.join("BENCH_summary.json");
    std::fs::write(&summary_path, summary).expect("write BENCH_summary.json");
    println!("\nwrote {}", summary_path.display());
    println!("all experiments reproduced under {}/", out_dir.display());
}
