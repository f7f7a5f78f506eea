//! `wire_stream`: the benchmark's own OpenFlow client against a
//! realtime [`AgentServer`] with OVS agents. One nonblocking client
//! thread drives [`STREAM_CONNS`] connections in a closed loop with a
//! fixed window of [`WINDOW`] flow-mods per connection, fenced by a
//! barrier every [`FENCE`]. Throughput-bound.
//!
//! The client sends an add/strict-delete rotation, so every switch
//! table stays bounded. It uses plain `std::net` sockets and its own
//! buffers, never the server's transport types, so the offered load
//! stays fixed when the transport changes.

use crate::budget::{remainder_of, Budget, Row};
use crate::procfs::{self, SchedStat};
use crate::spans::Spans;
use crate::stats::latency_summary;
use crate::probe::{Kind, Probe, Spec};
use crate::{for_trials, med, Report, Run};
use ofwire::action::Action;
use ofwire::codec::Framer;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::message::Message;
use ofwire::types::{Dpid, PortNo, Xid};
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use switchsim::agent::Agent;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;
use tango_net::reactor::OutBuf;
use tango_net::server::{AgentServer, ServerHandle, ServerMode, ServerStats};
use tango_net::vt::VtMsg;

/// Flow-ids cycle through blocks of this many adds, then the matching
/// strict deletes.
pub const ID_BLOCK: u64 = 1024;
/// `wire_stream` connections (≤ nproc on the 2-core reference host).
pub const STREAM_CONNS: usize = 2;
/// Unacknowledged flow-mods per `wire_stream` connection.
pub const WINDOW: u64 = 128;
/// Flow-mods per barrier; `WINDOW` is a multiple, so every fence covers
/// exactly `FENCE` flow-mods.
pub const FENCE: u64 = 32;
/// Length of one trial; each trial runs on a freshly spawned server.
/// Trials are short and many because a trial's rate and tail swing
/// with how the client, shard and acceptor threads share two cores,
/// and with stalls of the host: the median over hundreds of short
/// trials stays steady as long as most trials see no stall.
const STREAM_TRIAL_S: f64 = 0.01;
/// Flow-mods a `wire_stream` trial acks before it may stop, so a trial
/// that a host stall slowed still has the samples its own p99 needs.
const STREAM_TRIAL_MIN_ACKS: u64 = 2048;
/// The host-speed probe: a loopback echo between two threads that both
/// spin, like the client and the shard.
pub const PROBE: Spec = Spec {
    kind: Kind::Echo,
    sample_s: 0.1,
    every_s: 0.3,
    reference_rate: 130_000.0,
};
/// Unmeasured `wire_stream` trial before the measured ones.
const WARMUP_S: f64 = 0.1;
/// Latency samples preallocated (and touched), so the client's own
/// buffer adds the same resident memory to every run; enough for any
/// trial, the warm-up included, below 2.6M flow-mods/s.
const LATENCY_CAP: usize = 1 << 18;
/// Flow-mods of client traffic captured for the layer replays (at most
/// one trial's worth).
const CAPTURE_OPS: u64 = 8 * ID_BLOCK;
/// Minimum wall time of each replay pass.
const REPLAY_S: f64 = 0.2;

/// The seeded add/strict-delete flow-mod rotation: blocks of
/// [`ID_BLOCK`] adds, then strict deletes of the same matches. The seed
/// picks the id range, priority and output port; the work per op does
/// not depend on it.
#[derive(Debug, Clone, Copy)]
pub struct Rotation {
    base: u32,
    priority: u16,
    port: u16,
}

impl Rotation {
    #[must_use]
    pub fn from_seed(seed: u64) -> Rotation {
        Rotation {
            // Keep base + id inside the 24-bit host space of
            // `l3_for_id`.
            base: (seed % (1 << 20)) as u32,
            priority: 1 + ((seed >> 20) % 1000) as u16,
            port: 1 + ((seed >> 32) % 8) as u16,
        }
    }

    /// The `i`-th flow-mod of the stream.
    #[must_use]
    pub fn flow_mod(&self, i: u64) -> FlowMod {
        let id = self.base + (i % ID_BLOCK) as u32;
        let m = FlowMatch::l3_for_id(id);
        if (i / ID_BLOCK).is_multiple_of(2) {
            FlowMod::add(m, self.priority).with_action(Action::Output {
                port: PortNo(self.port),
                max_len: 0,
            })
        } else {
            FlowMod::delete_strict(m, self.priority)
        }
    }
}

fn roster(n: usize) -> Vec<(Dpid, SwitchProfile)> {
    (1..=n as u64)
        .map(|i| (Dpid(i), SwitchProfile::ovs()))
        .collect()
}

/// Spawns a realtime server for `n` switches and connects, binds and
/// handshakes (OpenFlow hello + features) one blocking socket per
/// switch. Returns the server, sockets, and the set-up time.
fn spawn_connect(seed: u64, n: usize) -> io::Result<(ServerHandle, Vec<TcpStream>, f64)> {
    let t0 = Instant::now();
    let server = AgentServer::spawn(seed, roster(n), ServerMode::Realtime)?;
    let mut socks = Vec::with_capacity(n);
    for dpid in 1..=n as u64 {
        let mut s = TcpStream::connect(server.addr())?;
        s.set_nodelay(true)?;
        let mut buf = Vec::new();
        VtMsg::Hello { dpid }
            .to_message()
            .encode_frame_into(Xid(0), &mut buf);
        Message::Hello.encode_frame_into(Xid(1), &mut buf);
        Message::FeaturesRequest.encode_frame_into(Xid(2), &mut buf);
        s.write_all(&buf)?;
        socks.push(s);
    }
    let mut scratch = vec![0u8; 4096];
    for s in &mut socks {
        let mut framer = Framer::new();
        'handshake: loop {
            let n = s.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed during handshake",
                ));
            }
            let mut input = &scratch[..n];
            while let Some((_, msg)) = framer.next_message_from(&mut input).map_err(bad_data)? {
                if matches!(msg, Message::FeaturesReply(_)) {
                    break 'handshake;
                }
            }
        }
    }
    Ok((server, socks, t0.elapsed().as_secs_f64()))
}

fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn io_err(e: io::Error) -> String {
    format!("i/o: {e}")
}

/// Checks the server's view of one trial: no protocol errors, and it
/// dispatched exactly the messages the client sent (2 handshake
/// messages per connection, every flow-mod, every barrier).
fn check_server(stats: &ServerStats, conns: usize, sent_msgs: u64) -> Result<(), String> {
    if stats.errors != 0 {
        return Err(format!("server reported {} protocol errors", stats.errors));
    }
    let expected = 2 * conns as u64 + sent_msgs;
    if stats.ops != expected {
        return Err(format!(
            "server dispatched {} messages, client sent {expected}",
            stats.ops
        ));
    }
    Ok(())
}

/// Traffic captured in a traced trial for the layer replays.
#[derive(Default)]
struct Capture {
    /// Client → server bytes (flow-mods and barriers), whole frames.
    requests: Vec<u8>,
    /// Server → client bytes, in the chunks the client read them.
    replies: Vec<Vec<u8>>,
    flow_mods: u64,
    frames: u64,
    done: bool,
}

/// Layer timings accumulated over the traced trials.
#[derive(Default)]
struct Traced {
    encode_ns: u64,
    encode_frames: u64,
    client: Vec<(SchedStat, u64)>,
    shard: Vec<(SchedStat, u64)>,
    acceptor_ms_per_s: Vec<f64>,
    process_cpu_us_per_op: Vec<f64>,
    minflt_per_op: Vec<f64>,
    server: Vec<ServerStats>,
    flow_mods: Vec<u64>,
}

/// What one trial measured.
struct TrialOut {
    flow_mods: u64,
    ops_per_s: f64,
    msgs_sent: u64,
    errors: u64,
}

/// Encodes `msg` into `out`, timing the codec when `timing` is set.
fn encode(msg: &Message, xid: u32, out: &mut Vec<u8>, timing: Option<&mut (u64, u64)>) {
    match timing {
        Some((ns, frames)) => {
            let t = Instant::now();
            msg.encode_frame_into(Xid(xid), out);
            *ns += t.elapsed().as_nanos() as u64;
            *frames += 1;
        }
        None => msg.encode_frame_into(Xid(xid), out),
    }
}

/// One `wire_stream` connection's client state.
struct StreamConn {
    sock: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    framer: Framer,
    sent: u64,
    acked: u64,
    /// Cumulative `sent` at each outstanding fence, FIFO.
    fences: VecDeque<u64>,
    /// Send instant of each unacknowledged flow-mod, FIFO.
    send_times: VecDeque<Instant>,
    xid: u32,
    msgs: u64,
    errors: u64,
}

fn stream_trial(
    socks: Vec<TcpStream>,
    rot: Rotation,
    dur: Duration,
    mut timing: Option<&mut (u64, u64)>,
    mut capture: Option<&mut Capture>,
    latencies: &mut Vec<f64>,
) -> io::Result<TrialOut> {
    let mut conns = Vec::with_capacity(socks.len());
    for sock in socks {
        sock.set_nonblocking(true)?;
        conns.push(StreamConn {
            sock,
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            framer: Framer::new(),
            sent: 0,
            acked: 0,
            fences: VecDeque::new(),
            send_times: VecDeque::new(),
            xid: 2,
            msgs: 0,
            errors: 0,
        });
    }
    let mut scratch = vec![0u8; 256 * 1024];
    let start = Instant::now();
    let stop_at = start + dur;
    let mut stopped = false;
    // Flow-mods acked, and when the last ack before the stop arrived:
    // the trial's rate is acked ops over the time they took, which does
    // not step with the 32-op granularity of acks the way a count taken
    // at a fixed instant would.
    let mut acked_all = 0u64;
    let mut last_ack = (start, 0u64);
    loop {
        stopped |= acked_all >= STREAM_TRIAL_MIN_ACKS && Instant::now() >= stop_at;
        let mut progress = false;
        let mut drained = true;
        for (ci, c) in conns.iter_mut().enumerate() {
            if !stopped {
                let before = c.out.len();
                while c.sent - c.acked < WINDOW {
                    c.xid += 1;
                    let msg = Message::FlowMod(rot.flow_mod(c.sent));
                    encode(&msg, c.xid, &mut c.out, timing.as_deref_mut());
                    c.send_times.push_back(Instant::now());
                    c.sent += 1;
                    c.msgs += 1;
                    if c.sent % FENCE == 0 {
                        c.xid += 1;
                        encode(
                            &Message::BarrierRequest,
                            c.xid,
                            &mut c.out,
                            timing.as_deref_mut(),
                        );
                        c.fences.push_back(c.sent);
                        c.msgs += 1;
                    }
                }
                // Replays model one switch: capture connection 0 only.
                if let Some(cap) = capture.as_deref_mut().filter(|cap| ci == 0 && !cap.done) {
                    cap.requests.extend_from_slice(&c.out[before..]);
                    cap.flow_mods = c.sent;
                    cap.frames = c.msgs;
                    cap.done = c.sent >= CAPTURE_OPS;
                }
            }
            if c.out_pos < c.out.len() {
                match c.sock.write(&c.out[c.out_pos..]) {
                    Ok(n) => {
                        c.out_pos += n;
                        progress |= n > 0;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
                if c.out_pos == c.out.len() {
                    c.out.clear();
                    c.out_pos = 0;
                }
            }
            match c.sock.read(&mut scratch) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed a connection",
                    ))
                }
                Ok(n) => {
                    progress = true;
                    if let Some(cap) = capture.as_deref_mut().filter(|_| ci == 0) {
                        if cap.replies.len() < 4096 {
                            cap.replies.push(scratch[..n].to_vec());
                        }
                    }
                    let mut input = &scratch[..n];
                    while let Some((_, msg)) =
                        c.framer.next_message_from(&mut input).map_err(bad_data)?
                    {
                        match msg {
                            Message::BarrierReply => {
                                let covered = c.fences.pop_front().ok_or_else(|| {
                                    bad_data("barrier reply without an outstanding fence")
                                })?;
                                let now = Instant::now();
                                while c.acked < covered {
                                    let t = c.send_times.pop_front().expect("one per flow-mod");
                                    latencies.push(now.duration_since(t).as_secs_f64() * 1e3);
                                    c.acked += 1;
                                    acked_all += 1;
                                }
                                if !stopped {
                                    last_ack = (now, acked_all);
                                }
                            }
                            Message::Error(_) => c.errors += 1,
                            _ => {}
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            drained &= c.acked == c.sent;
        }
        if stopped && drained {
            break;
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    if last_ack.1 == 0 {
        // Nothing came back before the stop: count the drain too.
        last_ack = (Instant::now(), acked_all);
    }
    Ok(TrialOut {
        flow_mods: conns.iter().map(|c| c.sent).sum(),
        ops_per_s: last_ack.1 as f64 / last_ack.0.duration_since(start).as_secs_f64(),
        msgs_sent: conns.iter().map(|c| c.msgs).sum(),
        errors: conns.iter().map(|c| c.errors).sum(),
    })
}

/// `wire_stream`: throughput of a pipelined closed loop.
pub fn stream(run: &Run, spans: &mut Spans, probe: &mut Probe) -> Result<Report, String> {
    let conns = STREAM_CONNS;
    let server_seed = run.derive(1);
    let rot = Rotation::from_seed(run.derive(2));
    let mut report = Report::default();

    let mut latencies: Vec<f64> = Vec::with_capacity(LATENCY_CAP);
    latencies.resize(LATENCY_CAP, 1.0);
    let mut traced = Traced::default();
    let mut capture = Capture::default();
    let mut runq = [0u64; 3];
    let mut measured_s = 0.0;
    let mut trial = |i: Option<usize>,
                     spans: &mut Spans,
                     report: &mut Report,
                     traced: &mut Traced,
                     capture: &mut Capture,
                     probe: &Probe|
     -> Result<(), String> {
        let tracing = i.is_some_and(|i| run.trial_traced(i));
        let warmup = i.is_none();
        let span = spans.open(if tracing { "trial.traced" } else { "trial" }, None);
        let sc = spans.open("spawn_connect", span);
        let (server, socks, secs) = spawn_connect(server_seed, conns).map_err(io_err)?;
        spans.close(sc, 0);
        let before = procfs::all_threads();
        let flt0 = procfs::minflt();
        let client0 = procfs::thread_self();
        let mut enc = (0u64, 0u64);
        let timing = tracing.then_some(&mut enc);
        let cap = (tracing && !capture.done).then_some(&mut *capture);
        latencies.clear();
        let wall = Instant::now();
        let dur = Duration::from_secs_f64(if warmup { WARMUP_S } else { STREAM_TRIAL_S });
        let out = stream_trial(socks, rot, dur, timing, cap, &mut latencies).map_err(io_err)?;
        let wall_s = wall.elapsed().as_secs_f64();
        let client = procfs::thread_self().since(client0);
        let after = procfs::all_threads();
        let flt1 = procfs::minflt();
        let stats = server.shutdown().map_err(io_err)?;
        spans.close(span, out.flow_mods);
        // Replays model one trial: stop capturing when it ends.
        capture.done |= capture.flow_mods > 0;

        if out.errors != 0 {
            return Err(format!("{} error replies", out.errors));
        }
        if latencies.len() as u64 != out.flow_mods {
            return Err(format!(
                "{} of {} flow-mods acknowledged",
                latencies.len(),
                out.flow_mods
            ));
        }
        check_server(&stats, conns, out.msgs_sent)?;
        report.attempted += out.flow_mods;
        let Some(i) = i else { return Ok(()) };
        report.setup_s.push(probe.at(secs));
        // `comm` keeps 15 bytes of a thread name: "tango-net-accept"
        // reads "tango-net-accep".
        let shard = procfs::delta_by_prefix(&before, &after, "tango-net-shard");
        let acceptor = procfs::delta_by_prefix(&before, &after, "tango-net-accep");
        runq[0] += client.runq_ns;
        runq[1] += shard.runq_ns;
        runq[2] += acceptor.runq_ns;
        measured_s += wall_s;
        if run.trial_traced(i) {
            report.traced_ops_per_s.push(out.ops_per_s);
            traced.encode_ns += enc.0;
            traced.encode_frames += enc.1;
            traced.client.push((client, out.flow_mods));
            traced.shard.push((shard, out.flow_mods));
            traced
                .acceptor_ms_per_s
                .push(acceptor.cpu_ns as f64 / 1e6 / wall_s);
            let all = procfs::delta_by_prefix(&before, &after, "");
            traced
                .process_cpu_us_per_op
                .push(all.cpu_ns as f64 / 1e3 / out.flow_mods as f64);
            traced.server.push(stats);
            traced.flow_mods.push(out.flow_mods);
            traced
                .minflt_per_op
                .push((flt1 - flt0) as f64 / out.flow_mods as f64);
        } else {
            report.ops_per_s.push(probe.at(out.ops_per_s));
            let (p50, p99, n) =
                latency_summary(&mut latencies).ok_or("a trial acknowledged nothing")?;
            report.p50_ms.push(p50);
            let p99 = p99.ok_or("too few samples for p99 in a trial")?;
            report.p99_ms.push(p99);
            report.latency_samples += n;
        }
        Ok(())
    };
    trial(None, spans, &mut report, &mut traced, &mut capture, probe)?;
    for_trials(run.seconds, probe, |i, probe| {
        trial(Some(i), spans, &mut report, &mut traced, &mut capture, probe)
    })?;
    report.runq_ms.insert("client", runq[0] as f64 / 1e6);
    report.runq_ms.insert("shard", runq[1] as f64 / 1e6);
    report.runq_ms.insert("acceptor", runq[2] as f64 / 1e6);
    report
        .notes
        .push(format!("measured {measured_s:.3} s of trials"));

    if run.traced {
        layers(&mut report, &traced, &capture, spans)?;
    }
    Ok(report)
}

/// Median per-op value of `(stat, ops)` pairs under `f`.
fn per_op(v: &[(SchedStat, u64)], f: impl Fn(&SchedStat) -> u64) -> f64 {
    let per: Vec<f64> = v
        .iter()
        .map(|(s, ops)| f(s) as f64 / 1e3 / *ops as f64)
        .collect();
    med(&per)
}

fn server_per_op(t: &Traced, f: impl Fn(&tango_net::server::ShardStats) -> u64) -> f64 {
    let per: Vec<f64> = t
        .server
        .iter()
        .zip(&t.flow_mods)
        .map(|(s, ops)| s.shards.iter().map(&f).sum::<u64>() as f64 / *ops as f64)
        .collect();
    med(&per)
}

fn layers(
    report: &mut Report,
    t: &Traced,
    cap: &Capture,
    spans: &mut Spans,
) -> Result<(), String> {
    if cap.flow_mods == 0 {
        return Err("no traffic captured for the layer replays".into());
    }
    let l = &mut report.layers;
    let client_cpu = per_op(&t.client, |s| s.cpu_ns);
    let shard_cpu = per_op(&t.shard, |s| s.cpu_ns);
    l.insert("bench.client_cpu_us_per_op", client_cpu);
    l.insert(
        "bench.client_runq_us_per_op",
        per_op(&t.client, |s| s.runq_ns),
    );
    l.insert("tango-net.shard_cpu_us_per_op", shard_cpu);
    l.insert(
        "tango-net.shard_runq_us_per_op",
        per_op(&t.shard, |s| s.runq_ns),
    );
    l.insert("tango-net.acceptor_cpu_ms", med(&t.acceptor_ms_per_s));
    l.insert(
        "tango-net.would_block_per_op",
        server_per_op(t, |s| s.would_block),
    );
    l.insert("tango-net.wakeups_per_op", server_per_op(t, |s| s.wakeups));
    l.insert("proc.minflt_per_op", med(&t.minflt_per_op));
    l.insert(
        "tango-net.bytes_in_per_op",
        server_per_op(t, |s| s.bytes_in),
    );
    l.insert(
        "tango-net.bytes_out_per_op",
        server_per_op(t, |s| s.bytes_out),
    );
    let stalls: Vec<f64> = t
        .server
        .iter()
        .map(|s| s.shards.iter().map(|x| x.watermark_stalls).sum::<u64>() as f64)
        .collect();
    l.insert("tango-net.watermark_stalls", med(&stalls));
    let encode_ns = t.encode_ns as f64 / t.encode_frames.max(1) as f64;
    l.insert("ofwire.encode_ns_per_frame", encode_ns);
    l.insert(
        "tango-net.spawn_connect_s",
        crate::probe::raw_median(&report.setup_s),
    );

    // Replays of the captured traffic, each layer on its own.
    let decode = spans.open("replay.decode", None);
    let decode_ns = replay_decode(&cap.requests)?;
    spans.close(decode, cap.frames);
    let agent = spans.open("replay.agent", None);
    let agent_ns = replay_agent(&cap.requests, cap.flow_mods)?;
    spans.close(agent, cap.flow_mods);
    let outbuf = spans.open("replay.outbuf", None);
    let outbuf_ns = replay_outbuf(&cap.replies, cap.flow_mods)?;
    spans.close(outbuf, cap.flow_mods);
    l.insert("ofwire.decode_ns_per_frame", decode_ns);
    l.insert("switchsim.agent_ns_per_op", agent_ns);
    l.insert("tango-net.outbuf_ns_per_op", outbuf_ns);

    let frames_per_op = 1.0 + 1.0 / FENCE as f64;
    let encode_us = encode_ns * frames_per_op / 1e3;
    let (agent_us, outbuf_us) = (agent_ns / 1e3, outbuf_ns / 1e3);
    report.budget = Some(Budget::new(
        "one wire_stream flow_mod (CPU per op, all threads)",
        vec![
            Row {
                part: "client encode (ofwire)",
                us_per_op: encode_us,
            },
            Row {
                part: "client remainder",
                us_per_op: remainder_of(client_cpu, &[encode_us]),
            },
            Row {
                part: "agent replay (framing+agent+table)",
                us_per_op: agent_us,
            },
            Row {
                part: "outbuf replay (tango-net)",
                us_per_op: outbuf_us,
            },
            Row {
                part: "shard remainder (reactor I/O)",
                us_per_op: remainder_of(shard_cpu, &[agent_us, outbuf_us]),
            },
        ],
        "measured process CPU per op",
        med(&t.process_cpu_us_per_op),
    ));
    Ok(())
}

/// Repeats `pass` until [`REPLAY_S`] has passed; returns ns per unit
/// (`units` per pass).
fn timed_passes<F: FnMut() -> Result<(), String>>(units: u64, mut pass: F) -> Result<f64, String> {
    pass()?; // warm
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed().as_secs_f64() < REPLAY_S {
        pass()?;
        passes += 1;
    }
    Ok(t.elapsed().as_nanos() as f64 / (passes * units) as f64)
}

fn replay_decode(bytes: &[u8]) -> Result<f64, String> {
    let mut framer = Framer::new();
    let frames = {
        let mut input = bytes;
        let mut n = 0u64;
        while framer
            .next_message_from(&mut input)
            .map_err(|e| e.to_string())?
            .is_some()
        {
            n += 1;
        }
        n
    };
    timed_passes(frames, || {
        let mut input = bytes;
        while let Some(m) = framer
            .next_message_from(&mut input)
            .map_err(|e| e.to_string())?
        {
            black_box(m);
        }
        Ok(())
    })
}

/// Feeds the captured requests to a fresh OVS agent per pass, as the
/// live shard did; returns ns per flow-mod. Every pass must answer
/// every barrier and send no error.
fn replay_agent(bytes: &[u8], flow_mods: u64) -> Result<f64, String> {
    let barriers = {
        let (mut framer, mut input, mut n) = (Framer::new(), bytes, 0u64);
        while let Some((_, m)) = framer
            .next_message_from(&mut input)
            .map_err(|e| e.to_string())?
        {
            n += u64::from(matches!(m, Message::BarrierRequest));
        }
        n
    };
    let mut outs = Vec::new();
    let mut busy = Duration::ZERO;
    let mut passes = 0u64;
    while passes < 2 || busy.as_secs_f64() < REPLAY_S {
        let mut agent = Agent::new(Switch::new(SwitchProfile::ovs(), Dpid(1), 1));
        let (mut replies, mut errors) = (0u64, 0u64);
        let t = Instant::now();
        for (i, chunk) in bytes.chunks(64 * 1024).enumerate() {
            outs.clear();
            agent
                .feed_into(chunk, SimTime(i as u64 * 1_000), &mut outs)
                .map_err(|e| e.to_string())?;
            for o in &outs {
                match o.reply {
                    Some(Message::BarrierReply) => replies += 1,
                    Some(Message::Error(_)) => errors += 1,
                    _ => {}
                }
            }
        }
        if passes > 0 {
            busy += t.elapsed();
        }
        passes += 1;
        if replies != barriers || errors != 0 {
            return Err(format!(
                "agent replay answered {replies} of {barriers} barriers with {errors} errors"
            ));
        }
        black_box(&agent);
    }
    Ok(busy.as_nanos() as f64 / ((passes - 1) * flow_mods) as f64)
}

fn replay_outbuf(chunks: &[Vec<u8>], flow_mods: u64) -> Result<f64, String> {
    let mut out = OutBuf::new();
    let mut sink = io::sink();
    timed_passes(flow_mods, || {
        for c in chunks {
            out.tail().extend_from_slice(c);
            out.write_to(&mut sink).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::flow_mod::FlowModCommand;
    use std::collections::BTreeSet;

    #[test]
    fn rotation_adds_a_block_then_deletes_it() {
        let rot = Rotation::from_seed(0xfeed_beef_1234);
        let mut live = BTreeSet::new();
        for i in 0..4 * ID_BLOCK {
            let fm = rot.flow_mod(i);
            let key = format!("{:?}", fm.flow_match);
            match fm.command {
                FlowModCommand::Add => assert!(live.insert(key), "op {i} re-adds"),
                FlowModCommand::DeleteStrict => {
                    assert!(live.remove(&key), "op {i} deletes a ghost")
                }
                c => panic!("unexpected command {c:?}"),
            }
            assert!(live.len() as u64 <= ID_BLOCK);
            if (i + 1) % (2 * ID_BLOCK) == 0 {
                assert!(live.is_empty(), "table empty after each add/delete cycle");
            }
        }
    }

    #[test]
    fn rotation_is_a_pure_function_of_the_seed() {
        let a = Rotation::from_seed(7);
        let b = Rotation::from_seed(7);
        let c = Rotation::from_seed(8);
        assert_eq!(a.flow_mod(5), b.flow_mod(5));
        assert_ne!(a.flow_mod(5), c.flow_mod(5));
        assert_eq!(a.flow_mod(5).priority, a.flow_mod(5 + ID_BLOCK).priority);
    }

    #[test]
    fn agent_replay_answers_every_barrier() {
        let rot = Rotation::from_seed(3);
        let mut bytes = Vec::new();
        for i in 0..ID_BLOCK + 10 {
            Message::FlowMod(rot.flow_mod(i)).encode_frame_into(Xid(i as u32 + 3), &mut bytes);
            if (i + 1) % FENCE == 0 {
                Message::BarrierRequest.encode_frame_into(Xid(0), &mut bytes);
            }
        }
        let ns = replay_agent(&bytes, ID_BLOCK + 10).expect("clean replay");
        assert!(ns > 0.0);
    }
}
