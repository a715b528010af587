//! The one list of what `reproduce` regenerates and the golden test pins.
//!
//! Each [`Entry`] is a table, figure or ablation: its name, the files it
//! writes under `results/`, the function that generates their text and the
//! part of that text that is exact.  The simulator runs in virtual time, so
//! a table built from it alone is the same bytes on every host and its
//! committed copy is an oracle; a wall-clock column is not, and the entry
//! says where it starts.

use std::path::Path;

use crate::experiments::*;

/// Which part of an entry's output is the same bytes on every run.
#[derive(Clone, Copy)]
pub enum Exact {
    /// Every byte of every file: the entry runs in virtual time only.
    Whole,
    /// The report above the line that starts with `heading`.  `generate`
    /// stops there; `rest` runs the wall-clock section from that line down.
    Above {
        /// The start of the wall-clock section's first line.
        heading: &'static str,
        /// The wall-clock section, heading included.
        rest: fn() -> String,
    },
    /// Nothing: the table's wall-clock columns run through every row.
    Never,
}

/// One table, figure or ablation.
pub struct Entry {
    /// What `reproduce NAME` calls it; its report is `results/NAME.txt`.
    pub name: &'static str,
    /// The files it writes under `results/` beside its report.
    pub artifacts: &'static [&'static str],
    /// Which part of the output a golden test can pin.
    pub exact: Exact,
    /// The report's text, then each artifact's; an [`Exact::Above`] report
    /// only down to its heading.
    pub generate: fn() -> Vec<String>,
}

const fn entry(name: &'static str, exact: Exact, generate: fn() -> Vec<String>) -> Entry {
    Entry { name, artifacts: &[], exact, generate }
}

/// Every entry, in the order `reproduce` runs them.
pub static REGISTRY: &[Entry] = &[
    entry("fig2", Exact::Whole, fig2::generate),
    entry("fig3", Exact::Above { heading: fig3::OVERLAP_HEADING, rest: fig3::overlap_at_64ms }, fig3::generate),
    entry("fig4", Exact::Whole, fig4::generate),
    entry("table1", Exact::Never, table1::generate),
    entry("table2", Exact::Never, table2::generate),
    Entry {
        artifacts: &["stencil_trace.json", "stencil_summary.csv"],
        ..entry("export_trace", Exact::Whole, export_trace::generate)
    },
    entry("ablation_ampi", Exact::Whole, ablation_ampi::generate),
    entry("ablation_bsp", Exact::Whole, ablation_bsp::generate),
    entry("ablation_collectives", Exact::Whole, ablation_collectives::generate),
    Entry { artifacts: &["BENCH_elastic.json"], ..entry("ablation_elastic", Exact::Whole, ablation_elastic::generate) },
    entry("ablation_failures", Exact::Whole, ablation_failures::generate),
    entry("ablation_faults", Exact::Whole, ablation_faults::generate),
    entry("ablation_ghost", Exact::Whole, ablation_ghost::generate),
    entry("ablation_lb", Exact::Whole, ablation_lb::generate),
    entry("ablation_md_lb", Exact::Whole, ablation_md_lb::generate),
    entry("ablation_multicast", Exact::Whole, ablation_multicast::generate),
    Entry {
        artifacts: &["BENCH_overload.json"],
        ..entry("ablation_overload", Exact::Whole, ablation_overload::generate)
    },
    entry(
        "ablation_priority",
        Exact::Above { heading: ablation_priority::WALL_CLOCK_HEADING, rest: ablation_priority::wall_clock },
        ablation_priority::generate,
    ),
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

impl Entry {
    /// Its files under `results/`: the report, then the artifacts.
    pub fn files(&self) -> Vec<String> {
        let artifacts = self.artifacts.iter().map(|a| a.to_string());
        std::iter::once(format!("{}.txt", self.name)).chain(artifacts).collect()
    }

    /// What `generate` returns, one text per file.
    fn texts(&self) -> Vec<String> {
        let texts = (self.generate)();
        assert_eq!(texts.len(), 1 + self.artifacts.len(), "`{}` returns one text per file", self.name);
        texts
    }

    /// Everything the entry writes: what `generate` returns, with the
    /// wall-clock section of an [`Exact::Above`] report.
    pub fn reproduce(&self) -> Vec<String> {
        let mut texts = self.texts();
        if let Exact::Above { rest, .. } = self.exact {
            texts[0].push_str(&rest());
        }
        texts
    }

    /// Generate the exact part of the entry's output and compare it with
    /// the committed files under `results`, byte for byte.  The error names
    /// the file, its first differing line and the command that regenerates
    /// it.
    pub fn check(&self, results: &Path) -> Result<(), String> {
        for (file, got) in self.files().iter().zip(self.texts()) {
            let path = results.join(file);
            let committed = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let want = match self.exact {
                Exact::Whole => committed.as_str(),
                Exact::Above { heading, .. } => above(&committed, heading)
                    .ok_or_else(|| format!("{} has no line starting {heading:?}", path.display()))?,
                Exact::Never => return Err(format!("`{}` has no exact part to compare", self.name)),
            };
            if let Some((line, want, got)) = first_difference(want, &got) {
                let show = |l: Option<&str>| l.map_or_else(|| "<end of file>".to_string(), |l| format!("{l:?}"));
                return Err(format!(
                    "{path} does not match what `{name}` generates, first at line {line}:\n  committed: {}\n  \
                     generated: {}\nIf the change is meant, regenerate it and say why:\n  \
                     cargo run --release -p mdo-bench --bin reproduce -- {name} --out results",
                    show(want),
                    show(got),
                    path = path.display(),
                    name = self.name,
                ));
            }
        }
        Ok(())
    }
}

/// The text above the first line that starts with `heading`.
fn above<'a>(text: &'a str, heading: &str) -> Option<&'a str> {
    let at = text.match_indices(heading).map(|(i, _)| i).find(|&i| i == 0 || text[..i].ends_with('\n'))?;
    Some(&text[..at])
}

/// The first line (counted from 1) at which `want` and `got` differ, with
/// each side's line, newline included (`None` past its end); `None` when
/// the texts are equal.
pub fn first_difference<'a>(want: &'a str, got: &'a str) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut want, mut got) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
    let lines = (1..).map(|line| (line, want.next(), got.next()));
    lines.take_while(|&(_, w, g)| w.is_some() || g.is_some()).find(|&(_, w, g)| w != g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line_and_both_sides() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("", ""), None);
        assert_eq!(first_difference("a\nb\nc\n", "a\nB\nc\n"), Some((2, Some("b\n"), Some("B\n"))));
        assert_eq!(first_difference("a\nb\n", "a\n"), Some((2, Some("b\n"), None)), "generated text ends early");
        assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, None, Some("b\n"))), "generated text runs on");
        assert_eq!(first_difference("a\n", "a"), Some((1, Some("a\n"), Some("a"))), "a missing last newline");
    }

    #[test]
    fn above_cuts_at_the_first_line_that_starts_with_the_heading() {
        assert_eq!(above("x\n\nHead 1\ny\nHead 2\n", "Head"), Some("x\n\n"));
        assert_eq!(above("Head\n", "Head"), Some(""));
        assert_eq!(above("x Head\n", "Head"), None, "only at the start of a line");
    }

    #[test]
    fn every_file_has_one_entry_and_a_cut_report_is_alone() {
        let files: Vec<String> = REGISTRY.iter().flat_map(Entry::files).collect();
        let mut unique = files.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), files.len(), "{files:?}");
        for e in REGISTRY {
            assert!(std::ptr::eq(find(e.name).unwrap(), e), "{} is found by its name", e.name);
            if matches!(e.exact, Exact::Above { .. }) {
                assert!(e.artifacts.is_empty(), "{}: the heading cuts one report", e.name);
            }
        }
    }

    #[test]
    fn a_changed_byte_fails_the_check_and_says_how_to_regenerate() {
        let dir = std::env::temp_dir().join(format!("mdo-bench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fig2 = find("fig2").unwrap();
        let text = fig2.reproduce().remove(0);
        std::fs::write(dir.join("fig2.txt"), &text).unwrap();
        assert_eq!(fig2.check(&dir), Ok(()));
        std::fs::write(dir.join("fig2.txt"), text.replacen("16.000 ms outstanding", "16.001 ms outstanding", 1))
            .unwrap();
        let err = fig2.check(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("fig2.txt does not match what `fig2` generates, first at line 13"), "{err}");
        assert!(err.contains("16.001 ms outstanding") && err.contains("16.000 ms outstanding"), "{err}");
        assert!(err.contains("reproduce -- fig2 --out results"), "{err}");
    }
}
