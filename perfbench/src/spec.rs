//! The benchmark's metric inventory: every metric it prints, with its
//! unit and direction, and for per-layer metrics the workload whose
//! traced run it comes from and the end-to-end metric it should move.
//! `BENCHMARK.json` at the repository root mirrors this table (a test
//! keeps them in step).

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Untraced run, every workload; the bound is the share of the
    /// parent's median by which it may worsen.
    EndToEnd {
        /// Regression bound.
        bound: f64,
    },
    /// Traced run, every workload (0 where the layer is not exercised).
    Layer {
        /// Workload whose traced run the figure is meant for.
        workload: &'static str,
        /// End-to-end metric a change to this layer should move there.
        moves: &'static str,
    },
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Reporting kind.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    workload: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::Layer { workload, moves },
    }
}

/// Regression bound of `auc_combined`; the campaign's quality check holds
/// the measured AUC to the same share of its recorded value.
pub const AUC_BOUND: f64 = 0.1;

/// Every metric, end-to-end first.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("windows_per_s", "1/s", true, 0.25),
    e2e("packets_per_s", "1/s", true, 0.25),
    e2e("tick_p90_ms", "ms", false, 0.25),
    e2e("auc_combined", "ratio", true, AUC_BOUND),
    // campaign
    layer("eval.window_s", "s", false, "campaign", "windows_per_s"),
    layer(
        "core.calibration_s",
        "s",
        false,
        "campaign",
        "windows_per_s",
    ),
    layer(
        "core.score_s",
        "s",
        false,
        "campaign stream",
        "windows_per_s packets_per_s",
    ),
    layer(
        "propagation.trace_cache_hit_ratio",
        "ratio",
        true,
        "campaign",
        "windows_per_s",
    ),
    layer("par.cpu_util", "ratio", true, "campaign", "windows_per_s"),
    layer("par.pop_waits", "count", false, "campaign", "windows_per_s"),
    layer("eval.windows", "count", true, "campaign", "windows_per_s"),
    layer("eval.packets", "count", true, "campaign", "windows_per_s"),
    // stream
    layer(
        "core.score_us.baseline",
        "us",
        false,
        "stream",
        "packets_per_s",
    ),
    layer(
        "core.score_us.subcarrier",
        "us",
        false,
        "stream",
        "packets_per_s",
    ),
    layer(
        "core.score_us.combined",
        "us",
        false,
        "stream",
        "packets_per_s",
    ),
    layer("music.s", "s", false, "stream", "packets_per_s"),
    layer(
        "core.sanitize_memo_hit_ratio",
        "ratio",
        true,
        "stream",
        "packets_per_s",
    ),
    layer("stream.transport_s", "s", false, "stream", "packets_per_s"),
    layer(
        "stream.ingest_depth_max",
        "count",
        false,
        "stream",
        "packets_per_s",
    ),
    layer("wifi.wire_frames", "count", true, "stream", "packets_per_s"),
    layer("wifi.wire_bytes", "B", false, "stream", "packets_per_s"),
    layer(
        "wifi.wire_rejects",
        "count",
        false,
        "stream",
        "packets_per_s",
    ),
    // fleet_durable
    layer(
        "fleet.durable_cpu_s",
        "s",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "fleet.io_write_s",
        "s",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "fleet.log_bytes_per_window",
        "B",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "fleet.syncs_per_tick",
        "count",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "fleet.compactions",
        "1/tick",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "session.step_s",
        "s",
        false,
        "fleet_durable",
        "windows_per_s tick_p90_ms",
    ),
    layer(
        "fleet.io_read_s",
        "s",
        false,
        "fleet_durable",
        "packets_per_s",
    ),
    layer(
        "fleet.log_disk_bytes",
        "B",
        false,
        "fleet_durable",
        "packets_per_s",
    ),
    layer(
        "fleet.recover_ms_p50",
        "ms",
        false,
        "fleet_durable",
        "packets_per_s",
    ),
    // every workload
    layer("obs.trace_overhead", "ratio", false, "all", "none"),
    layer("obs.unattributed_s", "s", false, "all", "none"),
];

/// The metrics of one kind, in table order.
pub fn names(end_to_end: bool) -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }) == end_to_end)
        .map(|m| m.name)
        .collect()
}

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"key": "string"` / `"key": number` pair out of one
    /// flat JSON object literal (enough for BENCHMARK.json's entries).
    fn fields(obj: &str) -> Vec<(String, String)> {
        obj.split(',')
            .filter_map(|kv| {
                let (k, v) = kv.split_once(':')?;
                let k = k.trim().trim_matches(|c| c == '"' || c == '{').to_string();
                let v = v.trim().trim_matches(|c| c == '"' || c == '}').to_string();
                Some((k, v))
            })
            .collect()
    }

    fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let open = body.find('[').expect("array");
        let close = body.find(']').expect("array end");
        body[open + 1..close]
            .split('}')
            .map(str::trim)
            .map(|s| s.trim_start_matches(','))
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, e2e) in [("end_to_end", true), ("per_layer", false)] {
            let entries = section(&json, key);
            let listed: Vec<String> = entries
                .iter()
                .map(|e| {
                    let f = fields(e);
                    let get = |k: &str| {
                        f.iter()
                            .find(|(fk, _)| fk == k)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_else(|| panic!("{k} missing in {e}"))
                    };
                    let m = find(&get("name")).unwrap_or_else(|| panic!("unknown {e}"));
                    assert_eq!(get("unit"), m.unit, "{}", m.name);
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    assert_eq!(get("better"), better, "{}", m.name);
                    if let Kind::EndToEnd { bound } = m.kind {
                        let b: f64 = get("bound").parse().expect("numeric bound");
                        assert_eq!(b, bound, "{}", m.name);
                    }
                    m.name.to_string()
                })
                .collect();
            assert_eq!(listed, names(e2e), "{key} order and membership");
        }
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_target() {
        let e2e = names(true);
        for m in METRICS {
            if let Kind::Layer { moves, .. } = m.kind {
                for target in moves.split(' ').filter(|t| *t != "none") {
                    assert!(e2e.contains(&target), "{} moves unknown {target}", m.name);
                }
            }
        }
    }
}
