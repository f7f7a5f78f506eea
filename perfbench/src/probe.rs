//! Host-speed probe. The reference host is a VM shared with other
//! tenants, and its speed swings by 20–30 % over seconds to minutes: a
//! fixed single-threaded loop, timed back to back for 30 s, spread 0.24
//! (IQR/median), and the in-memory update ran at 140k ops/s for eight
//! seconds and at 210k before and after, with no steal recorded. Thread
//! CPU time swings with it, so it is no cure.
//!
//! A run therefore times a fixed workload of the benchmark's own — the
//! probe — between its trials, and states each time-based end-to-end
//! figure at the reference host speed: a rate is divided by the host's
//! speed during the sample, a time multiplied by it. The speed of a
//! sample is the mean of the probes just before and just after it, each
//! relative to the probe's rate on the reference host. The probe is the
//! benchmark's code, not the program's, so a change to the program
//! moves the figures and never the probe. The raw figures are printed
//! beside the stated ones.

use crate::med;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Steps of one probe round.
const ROUND_STEPS: usize = 10_000;

/// What the probe does; it should resemble the workload it calibrates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Random read-modify-writes over a table of this many entries (a
    /// power of two) and insert/remove churn in a hash map. The table
    /// size sets which level of the memory hierarchy the probe feels,
    /// so it should match the workload's working set. The table exists
    /// only while a sample runs, so it adds nothing to the peak
    /// resident set as long as it is smaller than what the workload
    /// frees between trials. Counts rounds of [`ROUND_STEPS`] steps.
    Memory { table_len: usize },
    /// Two threads echoing 64-byte messages over a loopback TCP
    /// connection, a window of [`ECHO_WINDOW`] in flight, both sides
    /// nonblocking and yielding when idle, as the wire workloads' client
    /// and server do. Counts echoed messages.
    Echo,
}

/// How a workload probes the host.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    /// Length of one probe sample.
    pub sample_s: f64,
    /// A sample is taken at the first gap between trials after this
    /// much time has passed since the last one.
    pub every_s: f64,
    /// Probe rounds per second that count as speed 1: about the median
    /// on the 2-vCPU reference host.
    pub reference_rate: f64,
}

/// A figure measured in probe epoch `epoch`: after `epoch` probe
/// samples had been taken and before the next one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub raw: f64,
    pub epoch: usize,
}

/// The probe workload and the speeds it measured, in order.
pub struct Probe {
    spec: Spec,
    map: HashMap<u64, u64>,
    state: u64,
    speeds: Vec<f64>,
    last: Instant,
}

impl Probe {
    /// Builds the probe and takes its first sample.
    #[must_use]
    pub fn new(spec: Spec) -> Probe {
        if let Kind::Memory { table_len } = spec.kind {
            assert!(table_len.is_power_of_two(), "probe table of {table_len}");
        }
        let mut p = Probe {
            spec,
            map: HashMap::with_capacity(1 << 16),
            state: 0x9e37_79b9_7f4a_7c15,
            speeds: Vec::new(),
            last: Instant::now(),
        };
        p.sample();
        p
    }

    /// Runs the probe for `sample_s` and records the host's speed: its
    /// rate over the reference rate.
    pub fn sample(&mut self) {
        let secs = self.spec.sample_s;
        let rate = match self.spec.kind {
            Kind::Memory { table_len } => self.memory_rate(table_len, secs),
            Kind::Echo => echo_rate(secs).expect("loopback echo probe"),
        };
        self.speeds.push(rate / self.spec.reference_rate);
        self.last = Instant::now();
    }

    fn memory_rate(&mut self, table_len: usize, secs: f64) -> f64 {
        let mut table: Vec<u64> = (0..table_len as u64).collect();
        let mask = table_len as u64 - 1;
        let t = Instant::now();
        let mut rounds = 0u64;
        while rounds == 0 || t.elapsed().as_secs_f64() < secs {
            let mut x = self.state;
            for _ in 0..ROUND_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x & mask) as usize;
                table[i] = table[i].wrapping_add(x);
                let k = x & 0xffff;
                if self.map.remove(&k).is_none() {
                    self.map.insert(k, x);
                }
            }
            self.state = x;
            rounds += 1;
        }
        let rate = rounds as f64 / t.elapsed().as_secs_f64();
        black_box(table);
        rate
    }

    /// Takes a sample if `every_s` has passed since the last.
    pub fn between(&mut self) {
        if self.last.elapsed().as_secs_f64() >= self.spec.every_s {
            self.sample();
        }
    }

    /// Tags a raw figure measured now with the current epoch.
    #[must_use]
    pub fn at(&self, raw: f64) -> Sample {
        Sample {
            raw,
            epoch: self.speeds.len(),
        }
    }

    /// Every sample's speed relative to the reference host, in order.
    #[must_use]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }
}

/// Bytes of one echo message.
const ECHO_MSG: usize = 64;
/// Echo messages in flight.
const ECHO_WINDOW: usize = 128;

/// One [`Kind::Echo`] sample of `secs`: messages echoed per second.
fn echo_rate(secs: f64) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || echo_loop(server, &stop))
    };
    // The client stays open until the echo thread has stopped, so
    // neither side resets a connection the other still uses.
    let counted = pump(&mut client, secs);
    stop.store(true, Ordering::Relaxed);
    let echoed = echo.join().map_err(|_| io::Error::other("echo thread panicked"))?;
    let (messages, secs) = counted?;
    echoed?;
    Ok(messages as f64 / secs)
}

/// Keeps [`ECHO_WINDOW`] messages in flight on `sock` for `secs`;
/// returns the messages echoed back and the time taken.
fn pump(sock: &mut TcpStream, secs: f64) -> io::Result<(u64, f64)> {
    sock.set_nodelay(true)?;
    sock.set_nonblocking(true)?;
    let msg = [0x5au8; ECHO_MSG];
    let mut buf = [0u8; ECHO_MSG * ECHO_WINDOW];
    let (mut sent, mut back) = (0usize, 0usize);
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < secs {
        let mut progress = false;
        while sent - back < ECHO_MSG * ECHO_WINDOW {
            let off = sent % ECHO_MSG;
            match sock.write(&msg[off..]) {
                Ok(n) => {
                    sent += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        match sock.read(&mut buf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                back += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    Ok(((back / ECHO_MSG) as u64, t.elapsed().as_secs_f64()))
}

/// Echoes everything `sock` receives until `stop` is set.
fn echo_loop(mut sock: TcpStream, stop: &AtomicBool) -> io::Result<()> {
    sock.set_nodelay(true)?;
    sock.set_nonblocking(true)?;
    let mut buf = vec![0u8; ECHO_MSG * ECHO_WINDOW];
    let (mut have, mut out) = (0usize, 0usize);
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        if have < buf.len() {
            match sock.read(&mut buf[have..]) {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    have += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        if out < have {
            match sock.write(&buf[out..have]) {
                Ok(n) => {
                    out += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if out == have {
                (have, out) = (0, 0);
            }
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Host speed during `epoch`: the mean of the probe speeds just before
/// and just after it (the nearest one at either end).
///
/// # Panics
/// When no probe sample was taken.
#[must_use]
pub fn speed(speeds: &[f64], epoch: usize) -> f64 {
    assert!(!speeds.is_empty(), "no probe samples");
    let last = speeds.len() - 1;
    let before = speeds[epoch.saturating_sub(1).min(last)];
    let after = speeds[epoch.min(last)];
    (before + after) / 2.0
}

/// Median of rate samples, each stated at the reference speed.
#[must_use]
pub fn rate_at_reference(samples: &[Sample], speeds: &[f64]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .map(|s| s.raw / speed(speeds, s.epoch))
        .collect();
    med(&v)
}

/// Median of time samples, each stated at the reference speed.
#[must_use]
pub fn time_at_reference(samples: &[Sample], speeds: &[f64]) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .map(|s| s.raw * speed(speeds, s.epoch))
        .collect();
    med(&v)
}

/// Median of the raw figures.
#[must_use]
pub fn raw_median(samples: &[Sample]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|s| s.raw).collect();
    med(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_mean_of_the_bracketing_probes() {
        let speeds = [1.0, 2.0, 0.5];
        assert_eq!(speed(&speeds, 1), 1.5);
        assert_eq!(speed(&speeds, 2), 1.25);
        // Before the first and after the last probe: the nearest one.
        assert_eq!(speed(&speeds, 0), 1.0);
        assert_eq!(speed(&speeds, 3), 0.5);
        assert_eq!(speed(&speeds, 9), 0.5);
    }

    #[test]
    fn a_slow_host_raises_rates_and_shortens_times() {
        // The host ran at half speed around the first two samples and
        // at full speed around the third.
        let speeds = [0.5, 0.5, 1.0, 1.0];
        let s = |raw, epoch| Sample { raw, epoch };
        let rates_seen = [s(100.0, 1), s(100.0, 1), s(200.0, 3)];
        assert_eq!(rate_at_reference(&rates_seen, &speeds), 200.0);
        let times_seen = [s(2.0, 1), s(1.0, 3), s(1.0, 3)];
        assert_eq!(time_at_reference(&times_seen, &speeds), 1.0);
        assert_eq!(raw_median(&times_seen), 1.0);
    }

    #[test]
    fn the_echo_probe_gets_its_messages_back() {
        let rate = echo_rate(0.01).expect("loopback echo");
        assert!(rate > 0.0);
    }

    #[test]
    fn the_probe_measures_a_positive_speed_per_sample() {
        let mut p = Probe::new(Spec {
            kind: Kind::Memory { table_len: 1 << 10 },
            sample_s: 0.01,
            every_s: 0.0,
            reference_rate: 1000.0,
        });
        let a = p.at(1.0);
        p.sample();
        assert_eq!(p.speeds().len(), 2);
        assert!(p.speeds().iter().all(|&x| x > 0.0));
        assert_eq!(a.epoch, 1);
        assert_eq!(p.at(1.0).epoch, 2);
    }
}
