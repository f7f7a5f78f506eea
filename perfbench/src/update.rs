//! `update_dag`: a scaled network-update DAG (`workloads`), lowered
//! onto OVS testbed switches (`bench::lower`) and executed by the
//! `tango` registry scheduler (`tango-sched`) on the in-memory DES
//! (`simnet`, `switchsim`). No transport.
//!
//! Each trial sets up — generates and lowers the DAG, timed — and then
//! executes it, timed around `execute_with` alone, so set-up samples
//! are spread over the whole run like the trials. The update is a
//! batch, so it has no per-request wall-clock latency; its per-request
//! latency is the paper's update metric instead: each request's
//! completion time in the simulated network, counted from the start of
//! the update (virtual time, taken from one extra execution with the
//! testbed's telemetry recording).

use crate::budget::{Budget, Row};
use crate::probe::{Kind, Probe, Spec};
use crate::procfs;
use crate::spans::Spans;
use crate::stats::latency_summary;
use crate::{for_trials, med, Report, Run};
use bench::lower::lower_scenario;
use ofwire::types::Dpid;
use std::time::Instant;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::RequestDag;
use tango_sched::executor::{execute_with, ExecReport};
use tango_sched::schedulers::{resolve, SchedulerEntry};
use workloads::update_dag::{scaled_update_dag, UpdateDagConfig};

/// Requests per DAG: the fast side of the working-set knee (throughput
/// falls from ~185k ops/s at 100k ops to ~135k at 400k).
pub const OPS: usize = 100_000;
const SCHEDULER: &str = "tango";
/// The host-speed probe. Its 32 MiB table, like the update's own
/// working set, lives in the shared last-level cache, so the probe
/// slows when other tenants crowd that cache, as the update does. It
/// runs between trials, when the trial's own copy is freed.
pub const PROBE: Spec = Spec {
    kind: Kind::Memory { table_len: 1 << 22 },
    sample_s: 0.05,
    every_s: 0.25,
    reference_rate: 680.0,
};

/// `(seed, virtual makespan ns)` recorded for seeds 1–12; a run with
/// one of these seeds must reproduce its makespan exactly.
const PINNED_MAKESPAN_NS: &[(u64, u64)] = &[
    (1, 1_950_438_601),
    (2, 1_964_800_371),
    (3, 1_946_159_351),
    (4, 1_956_329_115),
    (5, 1_957_943_938),
    (6, 1_947_285_064),
    (7, 1_961_251_950),
    (8, 1_949_144_077),
    (9, 1_940_958_121),
    (10, 1_960_647_359),
    (11, 1_942_157_842),
    (12, 1_951_069_669),
];

/// One generate-and-lower cycle: the lowered testbed and DAG, and the
/// generate and lower times.
fn setup(run: &Run) -> (Testbed, RequestDag, f64, f64) {
    let cfg = UpdateDagConfig {
        seed: run.derive(20),
        ..UpdateDagConfig::sweep(OPS)
    };
    let t = Instant::now();
    let scen = scaled_update_dag(&cfg);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut tb = Testbed::new(run.derive(21));
    let dpids: Vec<Dpid> = (1..=cfg.switches as u64)
        .map(|i| {
            tb.attach_default(Dpid(i), SwitchProfile::ovs());
            Dpid(i)
        })
        .collect();
    let dag = lower_scenario(&mut tb, &dpids, &scen);
    (tb, dag, gen_s, t.elapsed().as_secs_f64())
}

/// Checks one execution: every request completed, none failed, and the
/// issue order is a permutation that respects every DAG edge.
pub fn check_exec(dag: &RequestDag, r: &ExecReport) -> Result<(), String> {
    if r.completed != dag.len() || r.failed != 0 {
        return Err(format!(
            "{} of {} requests completed, {} failed",
            r.completed,
            dag.len(),
            r.failed
        ));
    }
    let mut pos = vec![usize::MAX; dag.len()];
    for (i, id) in r.issued.iter().enumerate() {
        if id.0 >= dag.len() || pos[id.0] != usize::MAX {
            return Err(format!("request {} issued twice or unknown", id.0));
        }
        pos[id.0] = i;
    }
    if r.issued.len() != dag.len() {
        return Err(format!(
            "{} of {} requests issued",
            r.issued.len(),
            dag.len()
        ));
    }
    for (before, after) in dag.edges() {
        if pos[before.0] > pos[after.0] {
            return Err(format!(
                "request {} issued before its dependency {}",
                after.0, before.0
            ));
        }
    }
    Ok(())
}

/// Executes the update once more with the testbed's telemetry on and
/// returns each request's completion time (ms since the update began).
/// Recording must not change the execution: its report has to equal
/// the untraced one, and the completion times have to sum to its
/// flowtime.
fn completion_ms(
    tb: &Testbed,
    dag: &RequestDag,
    entry: &SchedulerEntry,
    untraced: &ExecReport,
) -> Result<Vec<f64>, String> {
    let mut t = tb.clone();
    t.enable_telemetry();
    let start = t.now();
    let mut d = dag.clone();
    let mut sched = entry.build();
    let r = execute_with(
        &mut t,
        &mut d,
        &TangoDb::new(),
        sched.as_mut(),
        entry.release,
    )
    .map_err(|e| format!("execute: {e:?}"))?;
    if &r != untraced {
        return Err("recording telemetry changed the execution".into());
    }
    let rec = t.finish_recorder().ok_or("testbed telemetry was off")?;
    let done_ns: Vec<u64> = rec
        .spans()
        .filter(|s| s.name == "flow_mod")
        .map(|s| s.end.since(start).0)
        .collect();
    if done_ns.len() != dag.len() {
        return Err(format!(
            "{} request spans recorded for {} requests",
            done_ns.len(),
            dag.len()
        ));
    }
    if done_ns.iter().sum::<u64>() != r.flowtime.0 {
        return Err("request completion times do not sum to the flowtime".into());
    }
    Ok(done_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
}

pub fn update_dag(run: &Run, spans: &mut Spans, probe: &mut Probe) -> Result<Report, String> {
    let entry = resolve(SCHEDULER).ok_or("scheduler not registered")?;
    let mut report = Report::default();
    // The lowered testbed and DAG every trial's output is checked
    // against, and the later passes start from.
    let (tb, dag, _, _) = setup(run);
    let ops = dag.len() as u64;

    let (mut gen, mut lower) = (Vec::new(), Vec::new());
    let mut first: Option<ExecReport> = None;
    let (mut exec_s, mut events, mut minflt) = (Vec::new(), Vec::new(), Vec::new());
    let mut trial = |i: Option<usize>, spans: &mut Spans, report: &mut Report, probe: &Probe| {
        let tracing = i.is_some_and(|i| run.trial_traced(i));
        let span = spans.open(if tracing { "trial.traced" } else { "trial" }, None);
        let su = spans.open("setup", span);
        let (mut t, mut d, g, l) = setup(run);
        spans.close(su, ops);
        let mut sched = entry.build();
        let before = tracing.then(|| (simnet::sim::events_processed(), procfs::minflt()));
        let ex = spans.open("execute_with", span);
        let te = Instant::now();
        let r = execute_with(
            &mut t,
            &mut d,
            &TangoDb::new(),
            sched.as_mut(),
            entry.release,
        )
        .map_err(|e| format!("execute: {e:?}"))?;
        let exec = te.elapsed().as_secs_f64();
        spans.close(ex, ops);
        let after = tracing.then(|| (simnet::sim::events_processed(), procfs::minflt()));
        drop((t, d));
        spans.close(span, ops);

        report.attempted += ops;
        report.failed += r.failed as u64;
        check_exec(&dag, &r)?;
        match &first {
            None => first = Some(r),
            Some(f) if f.makespan != r.makespan || f.issued != r.issued => {
                return Err("execution differs between trials".into());
            }
            Some(_) => {}
        }
        if i.is_none() {
            return Ok(());
        }
        report.setup_s.push(probe.at(g + l));
        gen.push(g);
        lower.push(l);
        if let (Some((ev0, flt0)), Some((ev1, flt1))) = (before, after) {
            report.traced_ops_per_s.push(ops as f64 / exec);
            exec_s.push(exec);
            events.push((ev1 - ev0) as f64 / ops as f64);
            minflt.push((flt1 - flt0) as f64 / ops as f64);
        } else {
            report.ops_per_s.push(probe.at(ops as f64 / exec));
        }
        Ok(())
    };
    trial(None, spans, &mut report, probe)?;
    let main0 = procfs::thread_self();
    for_trials(run.seconds, probe, |i, probe| {
        trial(Some(i), spans, &mut report, probe)
    })?;
    let main = procfs::thread_self().since(main0);
    report.runq_ms.insert("main", main.runq_ns as f64 / 1e6);
    let first = first.expect("a trial ran");

    let makespan_ns = first.makespan.0;
    if let Some(&(_, pinned)) = PINNED_MAKESPAN_NS.iter().find(|(s, _)| *s == run.seed) {
        if pinned != makespan_ns {
            return Err(format!(
                "makespan {makespan_ns} ns, recorded {pinned} ns for seed {}",
                run.seed
            ));
        }
    }
    let span = spans.open("completion_times", None);
    let mut done_ms = completion_ms(&tb, &dag, &entry, &first)?;
    spans.close(span, ops);
    let (p50, p99, n) = latency_summary(&mut done_ms).ok_or("no requests")?;
    report.p50_ms.push(p50);
    report.p99_ms.push(p99.ok_or("too few requests for p99")?);
    report.latency_samples = n;
    report.notes.push(format!(
        "{OPS}-request DAG, {} edges; virtual makespan {makespan_ns} ns; p50/p99 are virtual completion times",
        dag.edges().count()
    ));

    if run.traced {
        let span = spans.open("replay", None);
        let mut t = tb.clone();
        let tr = Instant::now();
        for id in &first.issued {
            let n = dag.node(*id);
            t.flow_mod(n.location, n.to_flow_mod());
        }
        let replay_us = tr.elapsed().as_secs_f64() * 1e6 / ops as f64;
        spans.close(span, ops);
        let exec_us = med(&exec_s) * 1e6 / ops as f64;
        let dispatch_us = (exec_us - replay_us).max(0.0);
        let l = &mut report.layers;
        l.insert("workloads.gen_s", med(&gen));
        l.insert("bench.lower_s", med(&lower));
        l.insert("tango-sched.exec_s", med(&exec_s));
        l.insert("switchsim.replay_us_per_op", replay_us);
        l.insert("tango-sched.dispatch_us_per_op", dispatch_us);
        l.insert(
            "tango-sched.mean_completion_ms",
            first.mean_completion_s() * 1e3,
        );
        l.insert("simnet.events_per_op", med(&events));
        l.insert("proc.minflt_per_op", med(&minflt));
        l.insert("virtual_s", makespan_ns as f64 / 1e9);
        report.budget = Some(Budget::new(
            "one update_dag request (wall per op, one thread)",
            vec![
                Row {
                    part: "switch replay (switchsim+simnet)",
                    us_per_op: replay_us,
                },
                Row {
                    part: "dispatch (tango-sched) = exec - replay",
                    us_per_op: dispatch_us,
                },
            ],
            "measured wall per op (untraced trials)",
            1e6 / crate::probe::raw_median(&report.ops_per_s),
        ));
    }
    Ok(report)
}
