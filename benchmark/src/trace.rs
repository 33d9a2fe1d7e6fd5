//! Span files of a traced run: JSON Lines under `benchmark/out/`, written
//! only after the window (or the ladder) has closed. Line 1 is the root
//! span; every other span names it as its parent.

use crate::ladder::Probe;
use crate::workload::{Report, Span};
use std::fmt::Write as _;
use std::path::Path;

const OUTCOMES: [&str; 3] = ["ok", "miss", "failed"];

fn write(path: &Path, body: String) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// One line per recorded op: `{workload, thread, seq, op, start_ns,
/// end_ns, outcome, parent}`, times since the window opened.
pub fn write_workload(path: &Path, workload: &str, report: &Report) -> Result<(), String> {
    let window_ns = (report.window_s * 1e9) as u64;
    let mut out = format!(
        "{{\"span\":0,\"parent\":null,\"workload\":\"{workload}\",\"op\":\"run\",\"start_ns\":0,\"end_ns\":{window_ns}}}\n"
    );
    for (thread, spans) in report.spans.iter().enumerate() {
        for &Span {
            seq,
            kind,
            outcome,
            start_ns,
            end_ns,
        } in spans
        {
            let (op, outcome) = (report.kinds[kind as usize].0, OUTCOMES[outcome as usize]);
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"thread\":{thread},\"seq\":{seq},\"op\":\"{op}\",\
                 \"start_ns\":{start_ns},\"end_ns\":{end_ns},\"outcome\":\"{outcome}\",\"parent\":0}}"
            )
            .expect("writing to a String cannot fail");
        }
    }
    write(path, out)
}

/// One line per probe batch, named by crate and function.
pub fn write_ladder(path: &Path, probes: &[Probe]) -> Result<(), String> {
    let end = probes
        .iter()
        .flat_map(|p| &p.batches)
        .map(|b| b.1)
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "{{\"span\":0,\"parent\":null,\"op\":\"ladder\",\"start_ns\":0,\"end_ns\":{end}}}\n"
    );
    for p in probes {
        for (seq, &(start_ns, end_ns, calls)) in p.batches.iter().enumerate() {
            writeln!(
                out,
                "{{\"op\":\"{}\",\"metric\":\"{}\",\"regime\":\"{}\",\"seq\":{seq},\"calls\":{calls},\
                 \"start_ns\":{start_ns},\"end_ns\":{end_ns},\"parent\":0}}",
                p.target, p.metric, p.regime
            )
            .expect("writing to a String cannot fail");
        }
    }
    write(path, out)
}
