//! Reclamation/robustness diagnostics block for captured JSON.
//!
//! The `reproduce chaos` capture embeds a post-run snapshot of the hazard
//! domain and the fault subsystem under the `"reclamation"` key, so
//! regressions in garbage accumulation — or an armed fault site firing
//! where it should not — show up in the artifact being diffed.

use crate::json::Json;

/// A post-run snapshot of the hazard domain and fault counters as one JSON
/// object. On an unfaulted run the `ejections`, `zombies`,
/// `abandoned_threads`, and every `fired` are zero.
pub fn reclamation_json() -> Json {
    let (ejections, zombies) = lfc_hazard::ejection_stats();
    Json::Obj(vec![
        (
            "retired_count".into(),
            Json::int(lfc_hazard::retired_count() as u64),
        ),
        (
            "retired_bytes".into(),
            Json::int(lfc_hazard::retired_bytes() as u64),
        ),
        (
            "diverted".into(),
            Json::int(lfc_hazard::diverted_count() as u64),
        ),
        ("scans".into(), Json::int(lfc_hazard::scan_count() as u64)),
        ("ejections".into(), Json::int(ejections as u64)),
        ("zombies".into(), Json::int(zombies as u64)),
        // Fault/robustness diagnostics (PR 8): helper-side protocol
        // completions (organic read-helping + corpse adoptions) and the
        // per-site fault-injection counters.
        (
            "helped_completions".into(),
            Json::int(lfc_dcas::helped_completions() as u64),
        ),
        (
            "abandoned_threads".into(),
            Json::int(lfc_runtime::fault::abandoned_total() as u64),
        ),
        (
            "fault_counters".into(),
            Json::Arr(
                lfc_runtime::fault::counters()
                    .into_iter()
                    .map(|(site, checks, fired)| {
                        Json::Obj(vec![
                            ("site".into(), Json::str(site)),
                            ("checks".into(), Json::int(checks)),
                            ("fired".into(), Json::int(fired)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
