//! The one list of what `reproduce` regenerates and the golden test pins.
//!
//! Each [`Entry`] is a table, figure or ablation: its name, the files it
//! writes under `results/`, the function that generates their text and the
//! part of that text that is exact.  The simulator runs in virtual time, so
//! a table built from it alone is the same bytes on every host and its
//! committed copy is an oracle; a wall-clock column is not, and the entry
//! says where it starts.
//!
//! The documents quote those copies rather than retyping them: a fenced
//! block right after a line `<!-- quote: results/NAME A-B -->` must be
//! lines A to B of that file, which [`check_quotes`] verifies.

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
    entry("ampi_ring", Exact::Whole, ampi_ring::generate),
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

/// The start of a line that makes the fenced block after it a quotation:
/// `<!-- quote: results/NAME -->` for a whole file, `<!-- quote:
/// results/NAME A-B -->` for its lines A to B (1-based, inclusive).
pub const QUOTE_MARKER: &str = "<!-- quote: ";

/// Check every quotation in `text`, the document `doc`: the fenced block
/// right after each [`QUOTE_MARKER`] line must equal the lines it names of
/// the file under `root`, byte for byte.  One message per bad quotation,
/// naming the document, its line, the source and the first differing line;
/// a marker that names no file under `results/`, a range outside the file,
/// or no fenced block after it is bad too.
pub fn check_quotes(doc: &str, text: &str, root: &Path) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let markers = lines.iter().enumerate().filter_map(|(i, l)| {
        let spec = l.trim().strip_prefix(QUOTE_MARKER)?.strip_suffix("-->")?;
        Some((i, spec.trim()))
    });
    let checked = markers.map(|(i, spec)| check_quote(spec, &lines[i + 1..], root).map_err(|(at, e)| (i + 1 + at, e)));
    checked.filter_map(Result::err).map(|(line, e)| format!("{doc}:{line}: {e}")).collect()
}

/// One quotation: `spec` is the marker's `results/NAME [A-B]`, `after` the
/// document's lines after it.  The error carries its line's offset from
/// the marker.
fn check_quote(spec: &str, after: &[&str], root: &Path) -> Result<(), (usize, String)> {
    let bad = |e: String| (0, e);
    let (source, range) = spec.split_once(' ').map_or((spec, None), |(s, r)| (s, Some(r.trim())));
    if !source.starts_with("results/") || source.contains("..") {
        return Err(bad(format!("`{spec}` does not name a file under results/")));
    }
    let text = std::fs::read_to_string(root.join(source)).map_err(|e| bad(format!("{source}: {e}")))?;
    let all: Vec<&str> = text.lines().collect();
    let (first, last) = match range {
        None => (1, all.len()),
        Some(r) => r
            .split_once('-')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| bad(format!("`{r}` is not a line range A-B")))?,
    };
    if first == 0 || first > last || last > all.len() {
        return Err(bad(format!("{source} has {} lines: no lines {first}-{last}", all.len())));
    }
    let fenced = after.first().is_some_and(|l| l.starts_with("```"));
    let end = after.iter().skip(1).position(|l| l.trim_end() == "```").filter(|_| fenced);
    let block =
        end.map(|n| &after[1..=n]).ok_or_else(|| bad(format!("no fenced block follows the quote of {source}")))?;
    let text = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let (want, got) = (text(&all[first - 1..last]), text(block));
    match first_difference(&want, &got) {
        None => Ok(()),
        Some((n, w, g)) => Err((
            1 + n,
            format!(
                "the block is not {source} {first}-{last}, first at {source} line {}:\n  source: {}\n  quoted: {}",
                first - 1 + n,
                show(w),
                show(g)
            ),
        )),
    }
}

/// One side of a differing line, for a message.
fn show(line: Option<&str>) -> String {
    line.map_or_else(|| "<end of file>".to_string(), |l| format!("{l:?}"))
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
    fn a_quotation_is_its_lines_of_the_source_or_a_message_that_names_both() {
        let root = std::env::temp_dir().join(format!("mdo-bench-quotes-{}", std::process::id()));
        std::fs::create_dir_all(root.join("results")).unwrap();
        std::fs::write(root.join("results/t.txt"), "a\nb b\nc\n").unwrap();
        let check = |doc: &str| check_quotes("D.md", doc, &root);
        let quote = |marker: &str, block: &str| format!("x\n<!-- quote: {marker} -->\n```text\n{block}```\ny\n");
        assert!(check(&quote("results/t.txt", "a\nb b\nc\n")).is_empty());
        assert!(check(&quote("results/t.txt 2-3", "b b\nc\n")).is_empty());
        assert!(check("no markers at all\n").is_empty());
        let one = |doc: String| {
            let errors = check(&doc);
            assert_eq!(errors.len(), 1, "{errors:?}");
            errors[0].clone()
        };
        let changed = one(quote("results/t.txt 1-2", "a\nb c\n"));
        assert!(changed.starts_with("D.md:5: the block is not results/t.txt 1-2"), "{changed}");
        assert!(changed.contains("results/t.txt line 2") && changed.contains("\"b c\\n\""), "{changed}");
        assert!(one(quote("results/t.txt 2-2", "b b\nc\n")).contains("source: <end of file>"));
        let missing = one(quote("results/u.txt", "a\n"));
        assert!(missing.starts_with("D.md:2: results/u.txt"), "{missing}");
        assert!(one(quote("results/t.txt 3-4", "c\n")).contains("has 3 lines: no lines 3-4"));
        assert!(one(quote("results/t.txt 0-1", "a\n")).contains("no lines 0-1"));
        assert!(one(quote("results/t.txt 2", "b b\n")).contains("is not a line range"));
        assert!(one(quote("README.md", "a\n")).contains("does not name a file under results/"));
        assert!(one("<!-- quote: results/t.txt -->\nplain text\n".into()).contains("no fenced block"));
        assert!(one("<!-- quote: results/t.txt -->\n```\na\n".into()).contains("no fenced block"));
        std::fs::remove_dir_all(&root).unwrap();
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
