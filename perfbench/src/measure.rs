//! Timing helpers shared by the workloads: the closed loop that runs
//! jobs for a time budget, set-up timing, and the end-to-end metrics
//! every workload derives from its job latencies.

use crate::report::{median, tail, Report};
use std::time::{Duration, Instant};

/// Jobs every measured loop completes however short its budget, so the
/// tail percentile always has ten samples beyond it.
pub const MIN_JOBS: usize = 20;

/// Set-ups timed before the measured loop, and again after it;
/// `setup_s` is the median of both sets.
pub const SETUP_REPEATS: usize = 11;

/// `/proc/stat` counts CPU time in units of `USER_HZ`, which Linux fixes
/// at 100 per second for user space.
const USER_HZ: f64 = 100.0;

/// Seconds the host has withheld each of this machine's CPUs (the
/// `steal` column of `/proc/stat`); empty where that is unavailable.
fn steal_s() -> Vec<f64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|jiffies| jiffies / USER_HZ)
        .collect()
}

/// The most any one CPU was withheld between two [`steal_s`] readings.
fn stolen_since(before: &[f64]) -> f64 {
    steal_s()
        .iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .fold(0.0, f64::max)
}

/// Completed jobs of one measured loop.
#[derive(Debug)]
pub struct Loop<T> {
    /// `(job index, latency in seconds, output)`, in index order. A
    /// latency excludes time the host withheld a CPU during the job.
    pub jobs: Vec<(usize, f64, T)>,
    /// Wall time from the first job's start to the last job's end.
    pub wall_s: f64,
    /// Seconds the host withheld a CPU during the jobs.
    pub stolen_s: f64,
}

impl<T> Loop<T> {
    pub fn latencies(&self) -> Vec<f64> {
        self.jobs.iter().map(|(_, s, _)| *s).collect()
    }

    /// Sum of job latencies: the loop's busy time net of host steal.
    pub fn busy_s(&self) -> f64 {
        self.jobs.iter().map(|(_, s, _)| s).sum()
    }

    /// Median job latency in seconds.
    pub fn p50(&self) -> f64 {
        median(&self.latencies())
    }
}

/// Closed loop: one client runs jobs 0, 1, 2, … back to back until
/// `budget` has passed and at least [`MIN_JOBS`] jobs ran. Each job
/// spreads its own work over the machine's threads.
///
/// On a shared virtual machine the host at times withholds a CPU for
/// whole seconds; a job's latency is its wall time less the most any
/// CPU was withheld meanwhile (read at `/proc/stat`'s 10 ms resolution),
/// so that such pauses do not count against the program.
pub fn closed_loop<T>(budget: Duration, mut job: impl FnMut(usize) -> T) -> Loop<T> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut stolen_s = 0.0;
    while jobs.len() < MIN_JOBS || start.elapsed() < budget {
        let i = jobs.len();
        let steal = steal_s();
        let t = Instant::now();
        let out = job(i);
        let wall = t.elapsed().as_secs_f64();
        let stolen = stolen_since(&steal).min(wall);
        stolen_s += stolen;
        jobs.push((i, wall - stolen, out));
    }
    Loop {
        jobs,
        wall_s: start.elapsed().as_secs_f64(),
        stolen_s,
    }
}

/// Wall times of [`SETUP_REPEATS`] calls of `setup`, each run on the
/// calling thread, or with `on_both` on two threads at once and timed
/// until the slower finishes.
///
/// A shared host runs its CPUs at unequal, drifting speeds; on two
/// threads the figure is the slower CPU's whichever one a single-threaded
/// set-up would have landed on. Workloads take half their samples before
/// the measured loop and half after, so a brief slow spell on the host
/// cannot move the median.
pub fn time_setup<T: Send>(on_both: bool, setup: impl Fn() -> T + Sync) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            if on_both {
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(|| std::hint::black_box(setup()));
                    }
                });
            } else {
                std::hint::black_box(setup());
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median seconds per call of `f` over `reps` calls, timed in five
/// batches.
pub fn per_call_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&batches)
}

/// Records the end-to-end metrics shared by every workload: rates over
/// the loop's busy time, and job latency percentiles.
pub fn end_to_end<T>(
    report: &mut Report,
    setup: &[f64],
    shots: u64,
    tile_cycles: u64,
    lp: &Loop<T>,
) {
    let latencies = lp.latencies();
    let busy_s = lp.busy_s();
    println!(
        "host withheld a CPU for {:.3} s of the loop's {:.3} s",
        lp.stolen_s, lp.wall_s
    );
    report.set("host.steal_pct", pct(lp.stolen_s, lp.wall_s));
    report.set("setup_s", median(setup));
    report.set("shots_per_s", shots as f64 / busy_s);
    report.set("tile_cycles_per_s", tile_cycles as f64 / busy_s);
    report.set("job_p50_ms", median(&latencies) * 1e3);
    let (pctile, value, beyond) = tail(&latencies).expect("MIN_JOBS leaves a tail");
    println!(
        "job tail: p{pctile:.2} over {} jobs ({beyond} beyond it)",
        latencies.len()
    );
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (0..=10)
        .map(|k| format!("{:.1}", sorted[k * (sorted.len() - 1) / 10] * 1e3))
        .collect();
    println!("job latency deciles (ms): {}", deciles.join(" "));
    report.set("job_tail_ms", value * 1e3);
}

/// Tracing overhead as the traced half's median job latency over the
/// untraced half's.
pub fn overhead(report: &mut Report, untraced_p50: f64, traced_p50: f64) {
    report.set(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
    );
}

/// Share of `part` in `whole`, in percent (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}
