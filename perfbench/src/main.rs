//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <wire_stream|update_dag>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, warms up, then
//! measures trials — each with its own set-up — for `--seconds`, with a
//! host-speed probe between them, and checks the program's outputs.
//! Untraced runs (`--trace 0`) report the end-to-end metrics, stated at
//! the reference host speed; traced runs (`--trace 1`) alternate traced
//! and untraced trials and report the per-layer metrics. The last
//! stdout line is one JSON object; a failed check exits 1 without it.
//! See README.md.

mod budget;
mod probe;
mod procfs;
mod spans;
mod stats;
mod update;
mod wire;

use budget::Budget;
use probe::{Probe, Sample};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The per-layer metrics a traced run reports, in output order (the
/// `per_layer` list of `BENCHMARK.json`). Every traced run reports
/// each of them; a layer its workload never reaches reads 0, because no
/// thread, call or byte of that layer is on its path. Other layer
/// figures (the tracing overhead among them) are printed as notes.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.client_cpu_us_per_op", "us"),
    ("bench.client_runq_us_per_op", "us"),
    ("ofwire.encode_ns_per_frame", "ns"),
    ("ofwire.decode_ns_per_frame", "ns"),
    ("switchsim.agent_ns_per_op", "ns"),
    ("tango-net.outbuf_ns_per_op", "ns"),
    ("tango-net.shard_cpu_us_per_op", "us"),
    ("tango-net.shard_runq_us_per_op", "us"),
    ("tango-net.acceptor_cpu_ms", "ms"),
    ("tango-net.would_block_per_op", "count"),
    ("tango-net.wakeups_per_op", "count"),
    ("tango-net.bytes_in_per_op", "B"),
    ("tango-net.bytes_out_per_op", "B"),
    ("tango-net.spawn_connect_s", "s"),
    ("workloads.gen_s", "s"),
    ("bench.lower_s", "s"),
    ("tango-sched.exec_s", "s"),
    ("switchsim.replay_us_per_op", "us"),
    ("tango-sched.dispatch_us_per_op", "us"),
    ("tango-sched.mean_completion_ms", "ms"),
    ("simnet.events_per_op", "count"),
    ("proc.minflt_per_op", "count"),
    ("virtual_s", "s"),
];

/// What one invocation asked for.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Run {
    /// Whether trial `i` records layer timings: in a traced run every
    /// other trial does, so the untraced ones measure the overhead.
    #[must_use]
    pub fn trial_traced(&self, i: usize) -> bool {
        self.traced && i.is_multiple_of(2)
    }

    /// A stream of 64-bit values derived from the seed and a label, so
    /// every input of a workload is a pure function of `--seed`.
    #[must_use]
    pub fn derive(&self, label: u64) -> u64 {
        splitmix(self.seed ^ splitmix(label))
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a workload measured. Vectors hold one value per trial (or per
/// set-up); the reported figure is their median. Time-based samples
/// carry their probe epoch and are stated at the reference host speed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<Sample>,
    /// Ops per second of each untraced trial.
    pub ops_per_s: Vec<Sample>,
    /// Ops per second of each traced trial (raw).
    pub traced_ops_per_s: Vec<f64>,
    /// Latency percentiles, printed as notes but not reported as
    /// metrics: on the shared reference host the wall-clock ones follow
    /// hypervisor steal (see README.md).
    pub p50_ms: Vec<f64>,
    pub p99_ms: Vec<f64>,
    /// Latency samples behind the percentiles.
    pub latency_samples: usize,
    /// Per-layer values (medians over traced trials where per trial).
    pub layers: BTreeMap<&'static str, f64>,
    pub budget: Option<Budget>,
    /// Run-queue wait per thread class over the measured trials (ms),
    /// recorded as noise context only.
    pub runq_ms: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// Loops trials until `seconds` have passed (at least one), calling
/// `trial(index, probe)` and sampling the probe between trials.
pub fn for_trials<F>(seconds: f64, probe: &mut Probe, mut trial: F) -> Result<(), String>
where
    F: FnMut(usize, &Probe) -> Result<(), String>,
{
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        trial(i, probe)?;
        i += 1;
        probe.between();
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// Median over a per-trial vector, 0 when empty.
#[must_use]
pub fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Run {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            traced: trace.unwrap_or(false),
        },
    ))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = procfs::steal_ticks();
    let mut spans = Spans::new(run.traced);
    type Workload = fn(&Run, &mut Spans, &mut Probe) -> Result<Report, String>;
    let (measure, probe_spec): (Workload, probe::Spec) = match workload.as_str() {
        "wire_stream" => (wire::stream, wire::PROBE),
        "update_dag" => (update::update_dag, update::PROBE),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut probe = Probe::new(probe_spec);
    let result = measure(&run, &mut spans, &mut probe);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    probe.sample();
    let speeds = probe.speeds();
    let host_speed = med(speeds);
    let steal = procfs::steal_ticks().saturating_sub(steal0);
    let peak_rss_mib = procfs::peak_rss_kib() as f64 / 1024.0;
    let (nproc, model, kernel) = procfs::host();

    // Noise context: recorded beside the metrics, never used to drop
    // or repeat a run.
    let mut context = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu_model\":{},\"kernel\":{},\"steal_ticks\":{steal},\"host_speed\":{host_speed:.4},\"probe_samples\":{},\"runq_ms\":{{",
        json_str(&workload),
        run.seed,
        run.seconds,
        u8::from(run.traced),
        json_str(&model),
        json_str(&kernel),
        speeds.len(),
    );
    for (i, (k, v)) in report.runq_ms.iter().enumerate() {
        let _ = write!(
            context,
            "{}{}:{v:.3}",
            if i > 0 { "," } else { "" },
            json_str(k)
        );
    }
    context.push_str("}}");
    println!("# context {context}");
    for n in &report.notes {
        println!("# {n}");
    }
    // Per-trial rates as count and quartiles: the median is the
    // reported figure, the quartiles show how far trials swung.
    let quartiles = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => "none".to_string(),
            n => format!(
                "n={n} q1={:.0} median={:.0} q3={:.0}",
                stats::percentile(&v, 0.25),
                med(&v),
                stats::percentile(&v, 0.75)
            ),
        }
    };
    let raw_ops: Vec<f64> = report.ops_per_s.iter().map(|s| s.raw).collect();
    println!("# trial ops_per_s untraced: {}", quartiles(&raw_ops));
    if run.traced {
        println!(
            "# trial ops_per_s traced:   {}",
            quartiles(&report.traced_ops_per_s)
        );
    }

    // (name, value, unit, samples)
    let mut metrics: Vec<(&str, f64, &str, usize)> = Vec::new();
    if run.traced {
        let mut layers = report.layers.clone();
        let untraced = med(&raw_ops);
        if untraced > 0.0 && !report.traced_ops_per_s.is_empty() {
            let overhead = 100.0 * (1.0 - med(&report.traced_ops_per_s) / untraced);
            layers.insert("bench.tracing_overhead_pct", overhead);
        }
        for &(name, unit) in PER_LAYER {
            let v = layers.remove(name).unwrap_or(0.0);
            metrics.push((name, v, unit, report.traced_ops_per_s.len()));
        }
        for (name, v) in layers {
            println!("# {name:<34} {v:>16.6}");
        }
        if let Some(b) = &report.budget {
            print!("{}", b.render());
        }
    } else {
        println!(
            "# raw medians at host speed {host_speed:.4}: setup_s {:.6} ops_per_s {:.1}",
            probe::raw_median(&report.setup_s),
            med(&raw_ops),
        );
        println!(
            "# latency p50_ms {:.6} p99_ms {:.6} (n={})",
            med(&report.p50_ms),
            med(&report.p99_ms),
            report.latency_samples
        );
        metrics.push((
            "setup_s",
            probe::time_at_reference(&report.setup_s, speeds),
            "s",
            report.setup_s.len(),
        ));
        metrics.push((
            "ops_per_s",
            probe::rate_at_reference(&report.ops_per_s, speeds),
            "1/s",
            report.ops_per_s.len(),
        ));
        metrics.push(("peak_rss_mib", peak_rss_mib, "MiB", 1));
    }
    for (name, value, unit, n) in &metrics {
        println!("# {name:<34} {value:>16.6} {unit:<5} (n={n})");
        if !value.is_finite() {
            eprintln!("perfbench: {workload}: {name} is not a number");
            return ExitCode::FAILURE;
        }
    }

    let mut detail = format!("{{\"context\":{context},\"metrics\":{{");
    let mut result = String::from("{\"metrics\":{");
    for (i, (name, value, unit, n)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            result,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
        let _ = write!(
            detail,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\",\"samples\":{n}}}"
        );
    }
    detail.push_str("}}\n");
    write_outputs(&workload, &run, &detail, &spans);
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},{}}}}}",
        report.attempted,
        report.failed,
        &result[1..]
    );
    ExitCode::SUCCESS
}

/// Writes the run's detail (context + metrics with sample counts) and,
/// when traced, its spans under `perfbench/out/` of the working
/// directory. Best effort: the result line does not depend on it.
fn write_outputs(workload: &str, run: &Run, detail: &str, spans: &Spans) {
    let dir = std::path::Path::new("perfbench/out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!("{workload}-seed{}-trace{}", run.seed, u8::from(run.traced));
    let _ = std::fs::write(dir.join(format!("{stem}.json")), detail);
    if run.traced {
        let trace = spans.render(&format!("perfbench {workload} seed {}", run.seed));
        let _ = std::fs::write(dir.join(format!("{stem}.trace.json")), trace);
    }
}
