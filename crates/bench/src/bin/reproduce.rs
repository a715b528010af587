//! Regenerate the paper's tables and figures and every ablation.
//!
//! Usage: `reproduce [NAME…] [--out DIR]`
//!
//! Runs the named entries of `mdo_bench::registry` (all of them when none
//! is named), in registry order.  With `--out DIR` each entry's files are
//! written under DIR (`--out results` refreshes the committed copies);
//! without it each entry's report is printed and nothing is written.  The
//! golden test (`tests/golden.rs`) pins the exact part of every entry
//! against `results/`.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use mdo_bench::registry::{self, Entry, REGISTRY};

fn fail(err: &str) -> ! {
    eprintln!("reproduce: {err}");
    exit(1)
}

fn usage(err: &str) -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    fail(&format!("{err}\nusage: reproduce [NAME...] [--out DIR]\nnames: {}", names.join(" ")))
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut chosen: Vec<&'static Entry> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = Some(args.next().unwrap_or_else(|| usage("--out takes a directory")).into());
        } else if let Some(entry) = registry::find(&arg) {
            chosen.push(entry);
        } else {
            usage(&format!("unknown argument {arg:?}"));
        }
    }
    if chosen.is_empty() {
        chosen = REGISTRY.iter().collect();
    }

    for entry in chosen {
        let started = Instant::now();
        let texts = entry.reproduce();
        let Some(dir) = &out else {
            print!("{}", texts[0]);
            continue;
        };
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
        for (file, text) in entry.files().iter().zip(&texts) {
            let path = dir.join(file);
            std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
            println!("wrote {}", path.display());
        }
        println!("{}: {:.2} s", entry.name, started.elapsed().as_secs_f64());
    }
}
