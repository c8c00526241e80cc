//! The round runner: timed closed-loop rounds, interleaved round-robin
//! across workloads so host drift hits all of them alike, with the host's
//! steal counter read around each round.

use std::time::{Duration, Instant};

use crate::host::{HostDelta, HostSample};
use crate::stats::{lowest, median, percentile, select_clean, windows, CLEAN_STEAL_SHARE};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Length of one measured round, seconds.
pub const ROUND_S: f64 = 1.5;
/// Length of the discarded warm-up round each workload runs first, seconds.
pub const WARMUP_S: f64 = 1.0;

/// One window of a round (`stats::WINDOW_S` long) at its medians.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Median op latency, milliseconds.
    pub p50_ms: f64,
    /// Median time from one op's completion to the next's, milliseconds:
    /// the op and what the caller does between two ops.
    pub period_ms: f64,
}

/// The windows of a round whose successful ops took `latencies_ms` and
/// completed at `done_s` seconds; a round too short or too slow to hold a
/// full window is one window itself.
fn windows_of(latencies_ms: &[f64], done_s: &[f64]) -> Vec<Window> {
    let window = |r: std::ops::Range<usize>| {
        let periods: Vec<f64> =
            r.clone().skip_while(|&i| i == 0).map(|i| (done_s[i] - done_s[i - 1]) * 1e3).collect();
        Window { p50_ms: median(&latencies_ms[r]), period_ms: median(&periods) }
    };
    let mut out: Vec<Window> = windows(done_s).into_iter().map(window).collect();
    if out.is_empty() && done_s.len() > 1 {
        out.push(window(0..done_s.len()));
    }
    out
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Latency of every successful op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The round cut into windows.
    pub windows: Vec<Window>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed: a non-200, a transport error, or a reply that
    /// differs from the reference.
    pub failed: usize,
    /// The first failure's description.
    pub first_failure: Option<String>,
    /// Wall time, steal and CPU over the round.
    pub host: HostDelta,
}

impl Round {
    /// Folds `other`, which ran after `self`, into `self`.
    pub fn absorb(&mut self, other: Round) {
        self.latencies_ms.extend(other.latencies_ms);
        self.windows.extend(other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// Runs `w` closed-loop from op number `*next_op` until `length` has passed
/// or `max_ops` ops were attempted; a tracer makes it a traced pass.
pub fn run_round(
    w: &mut dyn Workload,
    next_op: &mut usize,
    length: Duration,
    max_ops: usize,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let mut round = Round::default();
    fn fail(round: &mut Round, why: String) {
        round.failed += 1;
        round.first_failure.get_or_insert(why);
    }
    if let Err(e) = w.connect() {
        round.attempted = 1;
        fail(&mut round, format!("connect: {e}"));
        return round;
    }
    let mut done_s = Vec::new();
    let before = HostSample::now();
    let start = Instant::now();
    while start.elapsed() < length && round.attempted < max_ops {
        round.attempted += 1;
        match w.op(*next_op, tracer.as_deref_mut()) {
            Ok(latency) => {
                round.latencies_ms.push(latency.as_secs_f64() * 1e3);
                done_s.push(start.elapsed().as_secs_f64());
            }
            Err(why) => {
                fail(&mut round, why);
                // The connection's framing is unknown after a failure.
                w.disconnect();
                if let Err(e) = w.connect() {
                    round.attempted += 1;
                    fail(&mut round, format!("reconnect: {e}"));
                    break;
                }
            }
        }
        *next_op += 1;
    }
    round.host = before.until(&HostSample::now());
    w.disconnect();
    round.windows = windows_of(&round.latencies_ms, &done_s);
    round
}

/// A workload's rounds reduced to the numbers the benchmark reports.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Median op latency of the clean rounds' quietest window, ms.
    pub latency_p50_ms: f64,
    /// Items per second at the median pace of the clean rounds' quickest
    /// window: items per op over its median op-to-op period.
    pub items_per_s: f64,
    /// Median over clean rounds of the round's median op latency, ms: what
    /// the traced pass's medians compare with.
    pub latency_typical_ms: f64,
    /// 90th and 99th percentile op latency pooled over clean rounds, ms.
    pub latency_p90_ms: f64,
    /// See `latency_p90_ms`.
    pub latency_p99_ms: f64,
    /// CPU milliseconds this process used per item, over clean rounds.
    pub cpu_ms_per_item: f64,
    /// Mean steal share over all measured rounds.
    pub steal_share: f64,
    /// Rounds at or under the steal limit.
    pub rounds_clean: usize,
    /// True when fewer than half the rounds were clean and the least stolen
    /// half was kept instead.
    pub noisy_host: bool,
    /// Indices of the rounds kept.
    pub kept: Vec<usize>,
}

/// Applies the clean-round rule to `rounds` and reduces them.
pub fn reduce(rounds: &[Round], items_per_op: usize) -> Measured {
    let steal: Vec<f64> = rounds.iter().map(|r| r.host.steal_share).collect();
    let (mut kept, noisy_host) = select_clean(&steal);
    // A round in which every op failed has no latency to report.
    kept.retain(|&i| !rounds[i].latencies_ms.is_empty());
    let items = |r: &Round| (r.latencies_ms.len() * items_per_op) as f64;
    let p50: Vec<f64> = rounds.iter().map(|r| median(&r.latencies_ms)).collect();
    let kept_windows = || kept.iter().flat_map(|&i| &rounds[i].windows);
    let period_ms = lowest(kept_windows().map(|w| w.period_ms));
    let pooled: Vec<f64> =
        kept.iter().flat_map(|&i| rounds[i].latencies_ms.iter().copied()).collect();
    let kept_items: f64 = kept.iter().map(|&i| items(&rounds[i])).sum();
    let kept_cpu: f64 = kept.iter().map(|&i| rounds[i].host.cpu_ms).sum();
    Measured {
        latency_p50_ms: lowest(kept_windows().map(|w| w.p50_ms)),
        items_per_s: if period_ms > 0.0 { items_per_op as f64 * 1e3 / period_ms } else { 0.0 },
        latency_typical_ms: median(&kept.iter().map(|&i| p50[i]).collect::<Vec<f64>>()),
        latency_p90_ms: percentile(&pooled, 0.90),
        latency_p99_ms: percentile(&pooled, 0.99),
        cpu_ms_per_item: if kept_items > 0.0 { kept_cpu / kept_items } else { 0.0 },
        steal_share: steal.iter().sum::<f64>() / steal.len().max(1) as f64,
        rounds_clean: steal.iter().filter(|&&s| s <= CLEAN_STEAL_SHARE).count(),
        noisy_host,
        kept,
    }
}

fn timed_round(w: &mut dyn Workload, next_op: &mut usize, seconds: f64) -> Round {
    run_round(w, next_op, Duration::from_secs_f64(seconds), usize::MAX, None)
}

/// Warm-up then `rounds` measured rounds per workload, interleaved:
/// round 1 of every workload, then round 2 of every workload, and so on,
/// with `after_cycle(n)` called once every workload has run round `n`
/// (from 0). Returns each workload's warm-up round followed by its measured
/// rounds.
pub fn run_interleaved(
    workloads: &mut [Box<dyn Workload>],
    rounds: usize,
    mut after_cycle: impl FnMut(usize),
) -> Vec<Vec<Round>> {
    let mut next_op = vec![0usize; workloads.len()];
    let mut out: Vec<Vec<Round>> = workloads
        .iter_mut()
        .zip(&mut next_op)
        .map(|(w, n)| vec![timed_round(w.as_mut(), n, WARMUP_S)])
        .collect();
    for cycle in 0..rounds {
        for ((w, n), rounds_of_w) in workloads.iter_mut().zip(&mut next_op).zip(&mut out) {
            rounds_of_w.push(timed_round(w.as_mut(), n, ROUND_S));
        }
        after_cycle(cycle);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round that is one window, its ops evenly paced over `wall_s`.
    fn round(latencies_ms: &[f64], steal_share: f64, wall_s: f64, cpu_ms: f64) -> Round {
        Round {
            latencies_ms: latencies_ms.to_vec(),
            windows: vec![Window {
                p50_ms: median(latencies_ms),
                period_ms: wall_s * 1e3 / latencies_ms.len() as f64,
            }],
            attempted: latencies_ms.len(),
            failed: 0,
            first_failure: None,
            host: HostDelta { wall_s, steal_share, cpu_ms },
        }
    }

    #[test]
    fn a_round_is_cut_into_windows_at_their_medians() {
        // 150 ops of 1 ms, 1.01 ms apart, then 66 of 2 ms, 3 ms apart.
        let fast = (1..=150).map(|i| (1.0, i as f64 * 0.00101));
        let slow = (1..=66).map(|i| (2.0, 0.1515 + i as f64 * 0.003));
        let (latencies_ms, done_s): (Vec<f64>, Vec<f64>) = fast.chain(slow).unzip();
        let w = windows_of(&latencies_ms, &done_s);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].p50_ms, 1.0);
        assert!((w[0].period_ms - 1.01).abs() < 1e-9);
        assert_eq!(w[2].p50_ms, 2.0);
        assert!((w[2].period_ms - 3.0).abs() < 1e-9);
        // Too few ops for a full window: the round is its own window.
        let w = windows_of(&[5.0, 7.0, 9.0], &[0.02, 0.04, 0.07]);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].p50_ms, 7.0);
        assert!((w[0].period_ms - 25.0).abs() < 1e-9);
        assert!(windows_of(&[], &[]).is_empty());
    }

    #[test]
    fn reduction_is_the_quietest_clean_window() {
        let rounds = [
            round(&[1.0, 2.0, 3.0], 0.00, 1.0, 3.0),
            round(&[9.0, 9.0, 9.0, 9.0], 0.50, 1.0, 9.0), // stolen: dropped
            round(&[2.0, 4.0], 0.01, 0.5, 2.0),
            round(&[1.0, 1.0, 5.0, 5.0], 0.02, 2.0, 4.0),
        ];
        let m = reduce(&rounds, 2);
        assert_eq!(m.kept, vec![0, 2, 3]);
        assert!(!m.noisy_host);
        assert_eq!(m.rounds_clean, 3);
        // Window medians 2, 3, 3 -> 2; periods 333, 250, 500 ms at 2 items
        // an op -> 8 items/s.
        assert_eq!(m.latency_p50_ms, 2.0);
        assert_eq!(m.items_per_s, 8.0);
        assert_eq!(m.latency_typical_ms, 3.0);
        assert_eq!(
            m.latency_p99_ms,
            percentile(&[1.0, 2.0, 3.0, 2.0, 4.0, 1.0, 1.0, 5.0, 5.0], 0.99)
        );
        // 9 CPU ms over 18 items.
        assert_eq!(m.cpu_ms_per_item, 0.5);
        assert!((m.steal_share - 0.1325).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_host_keeps_the_least_stolen_half_and_says_so() {
        let rounds = [
            round(&[4.0], 0.30, 1.0, 1.0),
            round(&[2.0], 0.10, 1.0, 1.0),
            round(&[1.0], 0.60, 1.0, 1.0), // fastest, but most stolen: dropped
            round(&[6.0], 0.20, 1.0, 1.0),
        ];
        let m = reduce(&rounds, 1);
        assert!(m.noisy_host);
        assert_eq!(m.kept, vec![1, 3]);
        assert_eq!(m.rounds_clean, 0);
        assert_eq!(m.latency_p50_ms, 2.0);
    }
}
