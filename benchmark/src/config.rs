//! `BENCHMARK.json` (the metric and workload catalogue, read at run time
//! so names, units and bounds are stated once) and `benchmark/pins.json`
//! (input fingerprints and exact counters at the default seed).

use asynciter_report::json::Json;
use std::path::Path;

/// The catalogue, at the root of the checkout.
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";
/// The pins, next to the benchmark's sources.
pub const PINS_JSON: &str = "benchmark/pins.json";

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Allowed worsening as a share of the reference (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn text(json: &Json, key: &str) -> Result<String, String> {
    field(json, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key `{key}` is not a string"))
}

fn list<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(json, key)?
        .as_arr()
        .ok_or_else(|| format!("key `{key}` is not an array"))
}

fn metrics(json: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    list(json, key)?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Catalogue {
    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    /// Malformed JSON or a missing key.
    pub fn parse(text_in: &str) -> Result<Self, String> {
        let json = Json::parse(text_in).map_err(|e| e.to_string())?;
        Ok(Self {
            run_seconds: field(&json, "run_seconds")?
                .as_u64()
                .ok_or("key `run_seconds` is not a whole number")?,
            workloads: list(&json, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&json, "end_to_end")?,
            per_layer: metrics(&json, "per_layer")?,
        })
    }

    /// Reads the catalogue from the current directory (the root of the
    /// checkout; `run.sh` changes into it).
    ///
    /// # Errors
    /// An unreadable or malformed file.
    pub fn load() -> Result<Self, String> {
        let text_in = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("{BENCHMARK_JSON}: {e} (run from the root of the checkout)"))?;
        Self::parse(&text_in).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))
    }
}

/// A workload's pinnable facts, by name: its input `fingerprint` and its
/// exact counters, each rendered as text (a 64-bit digest does not fit a
/// JSON number, so nothing is stored as one).
pub type Facts = Vec<(String, String)>;

/// The parsed pins file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pins {
    /// The seed the pins were taken at.
    pub seed: u64,
    /// Pinned facts by workload name.
    pub workloads: Vec<(String, Facts)>,
}

impl Pins {
    /// Parses the text of `pins.json`.
    ///
    /// # Errors
    /// Malformed JSON or a missing key.
    pub fn parse(text_in: &str) -> Result<Self, String> {
        let json = Json::parse(text_in).map_err(|e| e.to_string())?;
        let Json::Obj(workloads) = field(&json, "workloads")? else {
            return Err("key `workloads` is not an object".into());
        };
        Ok(Self {
            seed: field(&json, "seed")?
                .as_u64()
                .ok_or("key `seed` is not a whole number")?,
            workloads: workloads
                .iter()
                .map(|(name, facts)| {
                    let Json::Obj(facts) = facts else {
                        return Err(format!("pins of `{name}` are not an object"));
                    };
                    let facts = facts
                        .iter()
                        .map(|(k, v)| {
                            v.as_str()
                                .map(|v| (k.clone(), v.to_string()))
                                .ok_or_else(|| format!("pin `{k}` of `{name}` is not a string"))
                        })
                        .collect::<Result<_, String>>()?;
                    Ok((name.clone(), facts))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Reads the pins, if the file exists.
    ///
    /// # Errors
    /// A malformed file.
    pub fn load() -> Result<Option<Self>, String> {
        if !Path::new(PINS_JSON).exists() {
            return Ok(None);
        }
        let text_in =
            std::fs::read_to_string(PINS_JSON).map_err(|e| format!("{PINS_JSON}: {e}"))?;
        Self::parse(&text_in)
            .map(Some)
            .map_err(|e| format!("{PINS_JSON}: {e}"))
    }

    /// The file's JSON.
    pub fn to_json(&self) -> Json {
        let facts = |facts: &Facts| {
            Json::Obj(
                facts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "workloads".into(),
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(name, f)| (name.clone(), facts(f)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The exact counters worth pinning, of those a run produced.
/// `report.doc_bytes` is not among them: the document carries wall-clock
/// fields whose digit counts differ from drain to drain.
pub const PINNED_COUNTERS: [&str; 5] = [
    "steps_to_target",
    "opt.update_components",
    "models.trace_text_bytes",
    "runtime.cluster.sent",
    "service.steps_sum",
];
