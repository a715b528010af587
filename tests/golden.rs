//! Golden tests: every table and figure whose output is exact matches its
//! committed copy under `results/`, byte for byte.
//!
//! The simulator runs in virtual time, so each `mdo_bench::registry` entry
//! built from it alone writes the same bytes on every host, and a change
//! that moves one shows here — by file, first differing line and the
//! `reproduce` command that regenerates it — instead of passing unnoticed.
//! The entries that take long in a debug build are ignored by default; CI
//! runs them all with `cargo test --release --test golden --
//! --include-ignored`.

use std::path::Path;

use mdo_bench::registry::{self, Exact, REGISTRY};

fn golden(name: &str) {
    let entry = registry::find(name).unwrap_or_else(|| panic!("`{name}` is not in the registry"));
    if let Err(mismatch) = entry.check(Path::new("results")) {
        panic!("{mismatch}");
    }
}

/// One test per entry, named after it, and the list of them.
macro_rules! golden {
    ($($(#[$attr:meta])* $name:ident;)*) => {
        $(
            #[test]
            $(#[$attr])*
            fn $name() {
                golden(stringify!($name));
            }
        )*
        const PINNED: &[&str] = &[$(stringify!($name)),*];
    };
}

golden! {
    fig2;
    export_trace;
    ablation_ampi;
    ablation_bsp;
    ablation_collectives;
    ablation_elastic;
    ablation_lb;
    ablation_overload;
    #[ignore = "release-only: 23 s in debug"]
    fig3;
    #[ignore = "release-only: 94 s in debug"]
    fig4;
    #[ignore = "release-only: 13 s in debug"]
    ablation_failures;
    #[ignore = "release-only: 19 s in debug"]
    ablation_faults;
    #[ignore = "release-only: 52 s in debug"]
    ablation_ghost;
    #[ignore = "release-only: 19 s in debug"]
    ablation_md_lb;
    #[ignore = "release-only: 12 s in debug"]
    ablation_multicast;
    #[ignore = "release-only: 27 s in debug"]
    ablation_priority;
}

#[test]
fn every_entry_with_an_exact_part_has_a_golden_test() {
    let mut exact: Vec<&str> = REGISTRY.iter().filter(|e| !matches!(e.exact, Exact::Never)).map(|e| e.name).collect();
    let mut pinned = PINNED.to_vec();
    exact.sort_unstable();
    pinned.sort_unstable();
    assert_eq!(pinned, exact);
}
