//! The committed artifacts (the static-analysis files and the figure
//! files at full and smoke scale) are exactly what the one JSON codec
//! writes: parsing each file and re-rendering it in the pretty layout
//! reproduces it byte for byte, so the writers, the files and any reader
//! agree on one format.

use mdd_sim::obs::Json;

fn load(name: &str) -> (String, Json) {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|| panic!("{path} is not valid JSON"));
    (text, json)
}

fn assert_round_trips(name: &str) -> Json {
    let (text, json) = load(name);
    assert!(
        json.render_pretty() + "\n" == text,
        "results/{name} is not in the codec's pretty layout; regenerate it"
    );
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("mdd-artifact/1"),
        "{name}"
    );
    json
}

/// Every `mdd-figures` name; the figures simulated outside the result
/// cache (application traffic) are the ones without a `config` per row.
const FIGURES: [(&str, bool); 12] = [
    ("fig6", false),
    ("table1", false),
    ("fig8", true),
    ("fig9", true),
    ("fig10", true),
    ("fig11", true),
    ("ablation_sa_shared", true),
    ("ablation_threshold", true),
    ("ablation_token", true),
    ("utilization", true),
    ("deadlock_freq_trace", false),
    ("deadlock_freq_synthetic", true),
];

#[test]
fn figure_artifacts_round_trip_and_name_their_configs() {
    for (dir, scale) in [("", "full"), ("smoke/", "smoke")] {
        for (name, cached) in FIGURES {
            let file = format!("{dir}{name}.json");
            let json = assert_round_trips(&file);
            assert_eq!(
                json.get("figure").and_then(Json::as_str),
                Some(name),
                "{file}"
            );
            let header = json.get("scale").unwrap();
            assert_eq!(
                header.get("name").and_then(Json::as_str),
                Some(scale),
                "{file}"
            );
            let rows = json.get("rows").and_then(Json::as_arr).unwrap();
            assert!(!rows.is_empty(), "{file}");
            for row in rows {
                let config = row.get("config").and_then(Json::as_str);
                if cached {
                    let hex = config.unwrap_or_else(|| panic!("{file}: row without config"));
                    assert!(
                        hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()),
                        "{file}: config {hex} is not 16 hex digits"
                    );
                } else {
                    assert_eq!(config, None, "{file}");
                }
            }
        }
    }
}

#[test]
fn verdicts_artifact_round_trips_byte_for_byte() {
    let json = assert_round_trips("verdicts.json");
    let rows = json.get("verdicts").and_then(Json::as_arr).unwrap();
    // 3 topologies x 4 schemes x 2 patterns x 3 VC budgets.
    assert_eq!(rows.len(), 72);
}

#[test]
fn frontier_artifact_round_trips_byte_for_byte() {
    let json = assert_round_trips("fault_frontier.json");
    let configs = json.get("configs").and_then(Json::as_arr).unwrap();
    assert_eq!(configs.len(), 6, "SA/DR/PR on 8x8 and 16x16");
    for cfg in configs {
        let topo = cfg.get("topo").and_then(Json::as_str).unwrap();
        let points = cfg.get("points").and_then(Json::as_arr).unwrap();
        // Every single-link fault plus 32 sampled double-link faults.
        let expected = match topo {
            "8x8" => 128 + 32,
            "16x16" => 512 + 32,
            other => panic!("unexpected frontier topology {other}"),
        };
        assert_eq!(points.len(), expected, "{topo}");
        let count = |k: &str| cfg.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(
            count("preserving") + count("degrading"),
            points.len() as u64,
            "{topo}"
        );
    }
}
