//! The host side of a run: the one CPU the process is pinned to, and the
//! counters read around every round: that CPU's hypervisor steal from
//! `/proc/stat`, this process's CPU time from `/proc/self/stat`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Words of the affinity masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU [`pin_to_one_cpu`] chose; `usize::MAX` while unpinned.
static PINNED_CPU: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The highest CPU set in `mask`.
fn highest_cpu(mask: &[u64]) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Pins the calling thread, and so every thread started after it, to the
/// highest CPU it may run on, and returns that CPU. Call first in `main`.
///
/// On this 2-vCPU shared host the cost of waking a thread on the *other*
/// vCPU moves by a factor of two between phases that last minutes (README,
/// "Noise protocol"); on one CPU a hand-off is a context switch and costs
/// the same every time. `available_parallelism` then reads 1, so the
/// program's worker pool sizes itself to one thread and kernels run inline.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and writable; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = highest_cpu(&mask).ok_or("empty affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `bytes` long and readable; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    PINNED_CPU.store(cpu, Ordering::Relaxed);
    Ok(cpu)
}

/// Kernel clock ticks per second as exported to user space (`USER_HZ`,
/// 100 on every Linux ABI this repo targets).
const USER_HZ: f64 = 100.0;

/// Parses the steal ticks (time the hypervisor ran something else while
/// the vCPU was runnable) out of `/proc/stat`: of CPU `cpu`, or summed over
/// CPUs from the aggregate line when `cpu` is `None`.
pub fn parse_proc_stat(text: &str, cpu: Option<usize>) -> Option<u64> {
    let label = cpu.map_or("cpu".to_string(), |n| format!("cpu{n}"));
    let line = text.lines().find(|l| l.split_ascii_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> =
        line.split_ascii_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    fields.get(7).copied()
}

/// Parses `utime + stime` (clock ticks, all threads) out of
/// `/proc/self/stat`. The command name may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_self_stat(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// One reading of the clock and both counters.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    steal_ticks: u64,
    self_ticks: u64,
}

/// What happened between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Stolen time as a share of one core over the interval.
    pub steal_share: f64,
    /// CPU time this process used, milliseconds.
    pub cpu_ms: f64,
}

impl HostSample {
    /// Reads the counters now. Missing or unparsable files read as zero, so
    /// every round then counts as clean: the run still completes on a host
    /// without `/proc`.
    pub fn now() -> HostSample {
        let cpu = Some(PINNED_CPU.load(Ordering::Relaxed)).filter(|&c| c != usize::MAX);
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|t| parse_proc_stat(&t, cpu))
            .unwrap_or(0);
        let self_ticks = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|t| parse_self_stat(&t))
            .unwrap_or(0);
        HostSample { at: Instant::now(), steal_ticks, self_ticks }
    }

    /// The interval from `self` to `later`.
    pub fn until(&self, later: &HostSample) -> HostDelta {
        let wall_s = later.at.duration_since(self.at).as_secs_f64();
        let steal = later.steal_ticks.saturating_sub(self.steal_ticks) as f64;
        HostDelta {
            wall_s,
            steal_share: if wall_s > 0.0 { steal / (USER_HZ * wall_s) } else { 0.0 },
            cpu_ms: later.self_ticks.saturating_sub(self.self_ticks) as f64 * 1000.0 / USER_HZ,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_cpu_line_parses() {
        let text =
            "cpu  7420 0 1655 45052 870 0 42 405 0 0\ncpu0 3700 0 800 22500 400 0 20 200 0 0\n";
        assert_eq!(parse_proc_stat(text, None), Some(405));
        assert_eq!(parse_proc_stat(text, Some(0)), Some(200));
        assert!(parse_proc_stat(text, Some(1)).is_none());
        assert!(parse_proc_stat("intr 1 2 3\n", None).is_none());
        assert!(parse_proc_stat("cpu  1 2 3\n", None).is_none());
        assert!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n", None).is_none());
    }

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        assert_eq!(highest_cpu(&[0b11, 0]), Some(1));
        assert_eq!(highest_cpu(&[0b0101, 0]), Some(2));
        assert_eq!(highest_cpu(&[1, 1 << 63]), Some(127));
        assert_eq!(highest_cpu(&[0, 0]), None);
    }

    #[test]
    fn self_stat_survives_hostile_command_names() {
        let text = "1716 (a b) c) R 1709 1716 1709 0 -1 4194304 106 0 0 0 12 34 0 0 20 0 1 0 27948";
        assert_eq!(parse_self_stat(text), Some(46));
        assert!(parse_self_stat("1716 (cat) R 1 2").is_none());
        assert!(parse_self_stat("no parens").is_none());
    }

    #[test]
    fn deltas_scale_ticks_to_shares_and_milliseconds() {
        let at = Instant::now();
        let a = HostSample { at, steal_ticks: 100, self_ticks: 50 };
        let b = HostSample {
            at: at + std::time::Duration::from_secs(2),
            steal_ticks: 120,
            self_ticks: 250,
        };
        let d = a.until(&b);
        assert!((d.wall_s - 2.0).abs() < 1e-9);
        assert!((d.steal_share - 0.10).abs() < 1e-9); // 20 ticks over 200 core-ticks
        assert!((d.cpu_ms - 2000.0).abs() < 1e-9);
    }
}
