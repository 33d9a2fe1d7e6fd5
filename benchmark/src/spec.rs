//! `BENCHMARK.json`, compiled in: the one list of workloads, metric names,
//! units and bounds. The report prints exactly these names, and
//! `check-repeat` gates on exactly these bounds.

use lfc_bench::json::Json;

const SOURCE: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Share of the first median by which the second may be worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(j: &Json, key: &str) -> String {
    match j.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: {key} is {other:?}, expected a string"),
    }
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json: {key} is not a list")
    };
    items
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            bound: match m.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                _ => None,
            },
        })
        .collect()
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(SOURCE).expect("BENCHMARK.json is valid JSON");
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json: workloads is not a list")
        };
        Spec {
            workloads: workloads.iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_the_seven_workloads_and_bounds_every_end_to_end_metric() {
        let spec = Spec::load();
        let names = [
            "pair_ops",
            "pair_move",
            "shard_local",
            "solo_mix",
            "map_read",
            "map_churn",
            "ledger_mix",
        ];
        assert_eq!(spec.workloads, names);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128);
    }
}
