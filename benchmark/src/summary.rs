//! What a run reports: the summary document (`out/summary.json`, also on
//! stdout) and, for a single-workload run, the driver's result line.

use std::fmt::Write as _;

use tsdx_serve::json::escape;

use crate::layers::{Traced, PER_LAYER};
use crate::rounds::{Measured, Round, ROUND_S, WARMUP_S};
use crate::stats::{lowest, median, CLEAN_STEAL_SHARE, WINDOW_S};

/// The gated end-to-end metrics as `(name, unit, better)`; `BENCHMARK.json`
/// fixes their regression bounds. Failures are reported beside them as
/// `attempted`/`failed` (and `fail_share` in the summary): a count that is
/// 0 on every healthy run cannot carry a relative bound.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("latency_p50_ms", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
];

/// Everything measured for one workload.
pub struct WorkloadResult {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Wall time of each fixture build; `setup_s` is the quickest.
    pub setup_runs_s: Vec<f64>,
    /// The discarded warm-up round, then the measured rounds.
    pub rounds: Vec<Round>,
    /// The measured rounds reduced under the clean-round rule.
    pub measured: Measured,
    /// The traced pass, when asked for.
    pub traced: Option<Traced>,
}

impl WorkloadResult {
    fn all_rounds(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().chain(self.traced.as_ref().map(|t| &t.round))
    }

    /// Ops attempted over every round of the run: warm-up, measured, traced.
    pub fn attempted(&self) -> usize {
        self.all_rounds().map(|r| r.attempted).sum()
    }

    /// Ops failed over every round of the run.
    pub fn failed(&self) -> usize {
        self.all_rounds().map(|r| r.failed).sum()
    }

    /// The first failed op's description.
    pub fn first_failure(&self) -> Option<&str> {
        self.all_rounds().find_map(|r| r.first_failure.as_deref())
    }

    /// The quickest fixture build, seconds: the builds are spread over the
    /// run, and what disturbs one only ever slows it down.
    pub fn setup_s(&self) -> f64 {
        lowest(self.setup_runs_s.iter().copied())
    }

    /// Value of every [`END_TO_END`] metric, in that order.
    pub fn end_to_end(&self) -> [f64; 3] {
        [self.measured.latency_p50_ms, self.measured.items_per_s, self.setup_s()]
    }

    /// Whether every reply matched its reference and no sanity rule broke.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.traced.as_ref().is_none_or(|t| t.broken_rules.is_empty())
    }

    /// The driver's result line: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let metrics = match &self.traced {
            None => {
                metric_map(END_TO_END.iter().zip(self.end_to_end()).map(|(m, v)| (m.0, m.1, v)))
            }
            Some(t) => metric_map(PER_LAYER.iter().map(|m| (m.0, m.1, t.metrics[m.0]))),
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
        )
    }
}

/// A finite number as JSON; anything else as 0, which no metric reads on a
/// healthy run.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_map<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let entries: Vec<String> = metrics
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v)))
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// Where and how the run was made.
pub struct Env {
    /// Commit of the checkout, as `run.sh` found it.
    pub commit: String,
    /// `rustc --version`, as `run.sh` found it.
    pub rustc: String,
    /// `std::thread::available_parallelism` at start-up.
    pub nproc: usize,
    /// The one CPU the process then pinned itself to; `None` if it could not.
    pub cpu: Option<usize>,
    /// Every `TSDX_*` variable set (none by default).
    pub tsdx_vars: Vec<(String, String)>,
}

/// One run of the benchmark.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measured rounds per workload.
    pub rounds: usize,
    /// Whether the traced pass ran.
    pub trace: bool,
    /// Host and build.
    pub env: Env,
    /// Results, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl Run {
    /// Whether every workload is [`correct`](WorkloadResult::correct).
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadResult::correct)
    }

    /// The summary document. It claims nothing: it is the baseline.
    pub fn summary_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\"benchmark\":\"tsdx\",\"seed\":{},\"trace\":{},",
            self.seed, self.trace
        );
        let vars: Vec<String> = self
            .env
            .tsdx_vars
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        let _ = writeln!(
            s,
            "\"env\":{{\"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"pinned_cpu\":{},\"tsdx_vars\":{{{}}}}},",
            escape(&self.env.commit),
            escape(&self.env.rustc),
            self.env.nproc,
            self.env.cpu.map_or("null".into(), |c| c.to_string()),
            vars.join(",")
        );
        let _ = writeln!(
            s,
            "\"protocol\":{{\"rounds\":{},\"round_s\":{ROUND_S},\"window_s\":{WINDOW_S},\"warmup_s\":{WARMUP_S},\"clean_steal_share\":{CLEAN_STEAL_SHARE},\
             \"reduction\":\"medians of the clean rounds' quietest window; quickest set-up\"}},",
            self.rounds
        );
        let noisy = self.workloads.iter().any(|w| w.measured.noisy_host);
        let _ = writeln!(s, "\"noisy_host\":{noisy},\"correct\":{},", self.correct());
        let _ = writeln!(s, "\"workloads\":{{");
        for (n, w) in self.workloads.iter().enumerate() {
            let sep = if n + 1 < self.workloads.len() { "," } else { "" };
            let _ = writeln!(s, "\"{}\":{}{sep}", w.name, workload_json(w));
        }
        let _ = writeln!(s, "}},");
        let broken: Vec<String> = self
            .workloads
            .iter()
            .flat_map(|w| w.traced.iter().flat_map(|t| &t.broken_rules))
            .map(|r| format!("\"{}\"", escape(r)))
            .collect();
        let _ = writeln!(s, "\"broken_sanity_rules\":[{}],", broken.join(","));
        let _ = writeln!(s, "\"claim\":null}}");
        s
    }
}

fn workload_json(w: &WorkloadResult) -> String {
    let mut s = String::from("{\n");
    let fail_share = w.failed() as f64 / w.attempted().max(1) as f64;
    let _ = writeln!(
        s,
        " \"attempted\":{},\"failed\":{},\"fail_share\":{},\"first_failure\":{},",
        w.attempted(),
        w.failed(),
        num(fail_share),
        w.first_failure().map_or("null".into(), |f| format!("\"{}\"", escape(f))),
    );
    let e2e = metric_map(END_TO_END.iter().zip(w.end_to_end()).map(|(m, v)| (m.0, m.1, v)));
    let _ = writeln!(s, " \"end_to_end\":{e2e},");
    let setups: Vec<String> = w.setup_runs_s.iter().map(|&v| num(v)).collect();
    let _ = writeln!(s, " \"setup_runs_s\":[{}],", setups.join(","));
    let rounds: Vec<String> = w.rounds[1..]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "{{\"ops\":{},\"wall_s\":{},\"p50_ms\":{},\"best_window_p50_ms\":{},\"steal_share\":{},\"kept\":{}}}",
                r.attempted,
                num(r.host.wall_s),
                num(median(&r.latencies_ms)),
                num(lowest(r.windows.iter().map(|w| w.p50_ms))),
                num(r.host.steal_share),
                w.measured.kept.contains(&i)
            )
        })
        .collect();
    let _ = writeln!(s, " \"rounds\":[{}],", rounds.join(","));
    let _ = write!(
        s,
        " \"rounds_clean\":{},\"noisy_host\":{},\"latency_typical_ms\":{},\"latency_p90_ms\":{},\"latency_p99_ms\":{}",
        w.measured.rounds_clean,
        w.measured.noisy_host,
        num(w.measured.latency_typical_ms),
        num(w.measured.latency_p90_ms),
        num(w.measured.latency_p99_ms)
    );
    if let Some(t) = &w.traced {
        let per_layer = metric_map(PER_LAYER.iter().map(|m| (m.0, m.1, t.metrics[m.0])));
        let _ = write!(s, ",\n \"per_layer\":{per_layer},\n \"waterfall\":[");
        for (n, layer) in t.layers.iter().enumerate() {
            let sep = if n > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\n  {{\"span\":\"{}\",\"self_us\":{},\"share_of_latency_p50\":{}}}",
                layer.name,
                num(layer.self_us),
                num(layer.share)
            );
        }
        s.push_str("\n ]");
    }
    s.push_str("\n}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostDelta;
    use crate::layers::Layer;
    use crate::rounds::{reduce, Window};
    use tsdx_serve::json::{parse, Json};

    fn round(latencies_ms: &[f64]) -> Round {
        Round {
            latencies_ms: latencies_ms.to_vec(),
            windows: vec![Window { p50_ms: median(latencies_ms), period_ms: 4.0 }],
            attempted: latencies_ms.len(),
            failed: 0,
            first_failure: None,
            host: HostDelta { wall_s: 1.5, steal_share: 0.01, cpu_ms: 900.0 },
        }
    }

    fn result(name: &'static str, traced: bool) -> WorkloadResult {
        let rounds = vec![round(&[9.0]), round(&[2.0, 2.5, 3.0]), round(&[2.0, 2.5])];
        let measured = reduce(&rounds[1..], 1);
        let traced = traced.then(|| Traced {
            metrics: PER_LAYER.iter().enumerate().map(|(i, m)| (m.0, i as f64 + 0.5)).collect(),
            layers: vec![Layer { name: "serve.http.read_head", self_us: 4.0, share: 0.002 }],
            broken_rules: Vec::new(),
            round: round(&[2.4]),
        });
        WorkloadResult { name, setup_runs_s: vec![0.3, 0.2, 0.25], rounds, measured, traced }
    }

    fn benchmark_json() -> Json {
        parse(include_bytes!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn names(list: &Json) -> Vec<&str> {
        list.as_arr().unwrap().iter().map(|m| m.get("name").unwrap().as_str().unwrap()).collect()
    }

    #[test]
    fn summary_round_trips_with_every_benchmark_json_name_present() {
        let run = Run {
            seed: 17,
            rounds: 2,
            trace: true,
            env: Env {
                commit: "abc".into(),
                rustc: "rustc 1.95.0 (\"quoted\")".into(),
                nproc: 2,
                cpu: Some(1),
                tsdx_vars: vec![("TSDX_NUM_THREADS".into(), "2".into())],
            },
            workloads: crate::workloads::NAMES.iter().map(|n| result(n, true)).collect(),
        };
        let text = run.summary_json();
        assert!(text.trim_end().ends_with("\"claim\":null}"), "{text}");
        let doc = parse(text.as_bytes()).expect("summary is valid JSON");
        let bench = benchmark_json();
        for workload in names(bench.get("workloads").unwrap()) {
            assert!(well_formed(workload), "{workload}");
            let w = doc
                .get("workloads")
                .unwrap()
                .get(workload)
                .unwrap_or_else(|| panic!("{workload} missing"));
            for (list, section) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
                for metric in names(bench.get(list).unwrap()) {
                    assert!(well_formed(metric), "{metric}");
                    let m = w
                        .get(section)
                        .unwrap()
                        .get(metric)
                        .unwrap_or_else(|| panic!("{metric} missing"));
                    assert!(m.get("value").unwrap().as_num().is_some());
                    assert!(m.get("unit").unwrap().as_str().is_some());
                }
            }
        }
        assert_eq!(
            doc.get("env")
                .unwrap()
                .get("tsdx_vars")
                .unwrap()
                .get("TSDX_NUM_THREADS")
                .unwrap()
                .as_str(),
            Some("2")
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let bench = benchmark_json();
        // The driver gates a subset (README, "What the driver runs").
        let gated = names(bench.get("workloads").unwrap());
        assert!(gated.len() >= 2 && gated.iter().all(|w| crate::workloads::NAMES.contains(w)));
        for (list, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = bench
                .get(list)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).unwrap().as_str().unwrap();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            assert_eq!(listed, table, "{list}");
        }
        let setup = bench
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"));
        assert_eq!(setup.unwrap().get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn result_line_carries_the_contract_keys_for_both_trace_modes() {
        for traced in [false, true] {
            let line = result("clip_octet", traced).result_line();
            assert!(!line.contains('\n'));
            let doc = parse(line.as_bytes()).expect("result line is valid JSON");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                doc.get("attempted").unwrap().as_num(),
                Some(if traced { 7.0 } else { 6.0 })
            );
            assert_eq!(doc.get("failed").unwrap().as_num(), Some(0.0));
            let table = if traced { PER_LAYER } else { END_TO_END };
            for (name, unit, _) in table {
                let m = doc
                    .get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
            }
        }
        let line = result("clip_octet", false).result_line();
        assert!(line.contains("\"latency_p50_ms\":{\"value\":2.25,\"unit\":\"ms\"}"), "{line}");
        assert!(line.contains("\"setup_s\":{\"value\":0.2,\"unit\":\"s\"}"), "{line}");
    }

    #[test]
    fn a_mismatch_or_a_broken_rule_makes_the_run_incorrect() {
        let mut w = result("clip_octet", true);
        assert!(w.correct());
        w.rounds[2].failed = 1;
        w.rounds[2].first_failure = Some("scenario \"a\" differs".into());
        assert!(!w.correct());
        assert_eq!(w.first_failure(), Some("scenario \"a\" differs"));
        assert!(w.result_line().starts_with("{\"correct\":false,\"attempted\":7,\"failed\":1,"));
        let mut w = result("clip_octet", true);
        w.traced.as_mut().unwrap().broken_rules.push("clip_octet: coverage".into());
        assert!(!w.correct());
    }
}
