//! `BENCHMARK.json`, the one place metric names, units, directions and
//! bounds are written down. The benchmark reads it at start-up and fails
//! if what it measured is not exactly what the file declares.

use famg_check::benchjson::JsonValue;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit, printed with every value.
    pub unit: String,
    /// Whether a smaller value is the better one.
    pub lower_is_better: bool,
    /// Share of the baseline median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself needs.
#[derive(Debug)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of the untraced pass.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of the traced pass.
    pub per_layer: Vec<MetricSpec>,
}

fn items<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match doc.get(key) {
        Some(JsonValue::Arr(v)) => Ok(v),
        _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
    }
}

fn text(item: &JsonValue, key: &str) -> Result<String, String> {
    item.get(key)
        .and_then(JsonValue::str_)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: an entry lacks the string `{key}`"))
}

fn metrics(doc: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    items(doc, key)?
        .iter()
        .map(|item| {
            Ok(MetricSpec {
                name: text(item, "name")?,
                unit: text(item, "unit")?,
                lower_is_better: text(item, "better")? == "lower",
                bound: item.get("bound").and_then(JsonValue::num),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(src: &str) -> Result<BenchSpec, String> {
        let doc = JsonValue::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(BenchSpec {
            workloads: items(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the current directory (the benchmark
    /// runs from the root of a checkout).
    pub fn load() -> Result<BenchSpec, String> {
        let src = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
        BenchSpec::parse(&src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn the_committed_file_declares_this_benchmark() {
        let spec = BenchSpec::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
    }
}
