//! Export a Projections-style trace of one stencil run.
//!
//! Runs the 8-PE, 64-object stencil at 16 ms one-way latency with
//! observability armed, and returns beside its report:
//!
//! * `stencil_trace.json` — Chrome trace-event JSON (load in
//!   `chrome://tracing` / Perfetto: one process per PE, handler spans,
//!   message flow arrows, idle/checkpoint instants).
//! * `stencil_summary.csv` — the per-PE CSV summary (utilization, overlap
//!   decomposition, latency/grain quantiles, counters).
//!
//! The JSON is re-parsed and structurally validated before it is returned
//! (every event carries `ph`/`ts`/`pid`), so a bad export fails loudly
//! here rather than silently in the viewer.

use mdo_apps::stencil::{self, StencilConfig};
use mdo_netsim::network::NetworkModel;
use mdo_netsim::Dur;
use mdo_obs::json::{self, Json};

use crate::{overlap_fraction, recorded};

/// Check every trace event carries the fields the viewers rely on.
fn validate_chrome_trace(doc: &str) -> Result<usize, String> {
    let root = json::parse(doc)?;
    let events = root.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("empty traceEvents".into());
    }
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i}: missing ph"))?;
        if !matches!(ph, "X" | "s" | "f" | "i" | "M") {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        ev.get("ts").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: missing ts"))?;
        ev.get("pid").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "X" {
            ev.get("dur").and_then(Json::as_f64).ok_or_else(|| format!("event {i}: X without dur"))?;
        }
    }
    Ok(events.len())
}

/// The report, the Chrome trace and the per-PE summary.
pub fn generate() -> Vec<String> {
    let (steps, latency_ms) = (6, 16);
    let cfg = StencilConfig::paper(64, steps);
    let net = NetworkModel::two_cluster_sweep(8, Dur::from_millis(latency_ms));
    let run = stencil::run_sim(cfg, net, recorded());
    let obs = run.report.obs.as_ref().expect("observability armed");

    let doc = obs.chrome_trace();
    let n_events = validate_chrome_trace(&doc).expect("exported trace must validate");

    let mut out = String::new();
    outln!(out, "stencil 2048x2048, 64 objects on 8 PEs, {steps} steps, {latency_ms} ms one-way");
    outln!(out, "  recorded events : {} ({} dropped)", obs.total_events(), obs.total_dropped());
    outln!(out, "  chrome trace    : stencil_trace.json ({n_events} trace events, validated)");
    outln!(out, "  per-PE summary  : stencil_summary.csv");
    outln!(
        out,
        "  run             : {:.1} ms end-to-end, util {:.2}, overlap fraction {:.2}",
        run.report.end_time.as_millis_f64(),
        run.report.mean_utilization(),
        overlap_fraction(&run.report),
    );
    vec![out, doc, obs.summary_csv()]
}
