//! Load generation: closed-loop `mine` connections and one open-loop
//! `append` connection, each driven by one generator thread.

use crate::client::{Conn, MineReply, Outcome, Tally};
use crate::spec::Spec;
use crate::trace::{SpanLog, Tracer};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One completed `mine`.
#[derive(Clone, Copy, Debug)]
pub struct MineSample {
    /// Index into `Spec::requests`.
    pub req: usize,
    /// Send → last reply line.
    pub latency: Duration,
    /// Completion time, from the window start.
    pub done: Duration,
    pub reply: MineReply,
}

/// One scheduled `append`, answered or not.
#[derive(Clone, Debug)]
pub struct AppendSample {
    /// Batch index (`Spec::append`).
    pub batch: usize,
    /// Scheduled send time, from the writer's start.
    pub due: Duration,
    /// Actual send time minus scheduled send time.
    pub late: Duration,
    /// Reply time minus **scheduled** send time, so a stall also counts
    /// against the requests queued behind it.
    pub latency: Option<Duration>,
    /// The `ok update …` line.
    pub ack: Option<String>,
}

/// Everything one closed-loop connection saw.
#[derive(Default)]
pub struct MineRun {
    pub samples: Vec<MineSample>,
    pub tally: Tally,
    pub spans: SpanLog,
}

/// Closed loop: send the next request of the rotation as soon as the
/// previous reply is complete, until `end` (from `start`).
pub fn closed_loop(
    addr: SocketAddr,
    spec: &Spec,
    lines: &[String],
    conn_index: usize,
    start: Instant,
    end: Duration,
    tracer: Option<&Tracer>,
) -> MineRun {
    let mut run = MineRun::default();
    let mut conn: Option<Conn> = None;
    let rotation = &spec.rotations[conn_index];
    let mut k = 0;
    while start.elapsed() < end {
        let req = rotation[k % rotation.len()];
        k += 1;
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    run.tally.record(&Outcome::Refused);
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            },
        };
        let outcome = match tracer {
            None => {
                let t0 = Instant::now();
                c.mine(&lines[req]).map(|reply| (t0.elapsed(), reply))
            }
            Some(t) => t.traced_mine(&mut run.spans, c, req, &lines[req]),
        };
        match outcome {
            Ok((latency, reply)) => {
                run.tally.record(&Outcome::Ok);
                run.samples.push(MineSample {
                    req,
                    latency,
                    done: start.elapsed(),
                    reply,
                });
            }
            Err(o) => {
                if o.drops_connection() {
                    conn = None;
                }
                run.tally.record(&o);
            }
        }
    }
    run
}

/// What the open-loop writer saw.
#[derive(Default)]
pub struct AppendRun {
    pub samples: Vec<AppendSample>,
    pub tally: Tally,
}

/// Open loop: send `lines[i]` (batch index, line) at `start + i/rate`
/// whether or not earlier replies have arrived. One connection; the
/// sending thread sleeps until each send is due while a receiving
/// thread reads replies as they arrive (socket read timeouts are too
/// coarse to time both on one thread). Replies still missing `drain`
/// after they were due count as failed.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[(usize, String)],
    rate: f64,
    start: Instant,
    drain: Duration,
) -> AppendRun {
    let mut run = AppendRun::default();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0;
    while next < lines.len() {
        let connected = TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(drain))?;
            let r = s.try_clone()?;
            Ok((s, r))
        });
        let Ok((mut writer, reader)) = connected else {
            // The batch due now could not be sent.
            std::thread::sleep(due(next).saturating_sub(start.elapsed()));
            run.tally.record(&Outcome::Refused);
            run.samples.push(AppendSample {
                batch: lines[next].0,
                due: due(next),
                late: start.elapsed().saturating_sub(due(next)),
                latency: None,
                ack: None,
            });
            next += 1;
            continue;
        };
        let first = run.samples.len();
        let (tx, rx) = mpsc::channel::<(usize, Duration)>();
        let replies = std::thread::scope(|s| {
            let receiver = s.spawn(move || receive(reader, rx, start));
            while next < lines.len() {
                std::thread::sleep(due(next).saturating_sub(start.elapsed()));
                let mut bytes = lines[next].1.clone().into_bytes();
                bytes.push(b'\n');
                run.samples.push(AppendSample {
                    batch: lines[next].0,
                    due: due(next),
                    late: start.elapsed().saturating_sub(due(next)),
                    latency: None,
                    ack: None,
                });
                // Queue the expectation before the reply can arrive.
                let _ = tx.send((run.samples.len() - 1, due(next)));
                next += 1;
                if writer.write_all(&bytes).is_err() {
                    break;
                }
            }
            drop(tx);
            receiver.join().expect("append receiver panicked")
        });
        let answered = replies.len();
        for (idx, outcome) in replies {
            match outcome {
                Ok((latency, ack)) => {
                    run.tally.record(&Outcome::Ok);
                    run.samples[idx].latency = Some(latency);
                    run.samples[idx].ack = Some(ack);
                }
                Err(o) => run.tally.record(&o),
            }
        }
        // Sent but never matched to a reply (the receiver gave up).
        for _ in answered..run.samples.len() - first {
            run.tally.record(&Outcome::Disconnected);
        }
    }
    run
}

/// Match replies to sent requests in order; stops when the sender is
/// done and every request is answered, or the connection fails.
#[allow(clippy::type_complexity)]
fn receive(
    stream: TcpStream,
    rx: mpsc::Receiver<(usize, Duration)>,
    start: Instant,
) -> Vec<(usize, Result<(Duration, String), Outcome>)> {
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    let mut line = String::new();
    while let Ok((idx, scheduled)) = rx.recv() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {
                let at = start.elapsed();
                line.pop();
                out.push((
                    idx,
                    match crate::client::err_code(&line) {
                        Some(code) => Err(Outcome::Err(code)),
                        None => Ok((at.saturating_sub(scheduled), line.clone())),
                    },
                ));
            }
            _ => {
                out.push((idx, Err(Outcome::Disconnected)));
                // Fail the sender's next write too, then account for
                // everything it still sends.
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                out.extend(rx.iter().map(|(i, _)| (i, Err(Outcome::Disconnected))));
                break;
            }
        }
    }
    out
}

/// What [`sample_host`] saw over a window.
pub struct HostSamples {
    /// Peak resident set size of this process, MiB.
    pub peak_rss_mib: f64,
    /// Per `slice` from the window start: the share of the host's CPU
    /// time the hypervisor gave to other guests.
    pub steal: Vec<f64>,
}

/// Sample this process's resident set size every millisecond
/// (copy-on-write updates hold their transient copies for a few
/// milliseconds only) and the host's CPU steal once per `slice` from
/// `start`, while `stop` is unset. Once stopped, `steal` covers every
/// slice that ended by then.
pub fn sample_host(stop: &AtomicBool, start: Instant, slice: Duration) -> HostSamples {
    let mut peak = rss_mib();
    let mut steal = Vec::new();
    let mut ticks = host_cpu_ticks();
    let mut slice_end = start + slice;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        peak = peak.max(rss_mib());
        let now = Instant::now();
        if stopping || now >= slice_end {
            let t = host_cpu_ticks();
            let frac = (t.0 - ticks.0) as f64 / (t.1 - ticks.1).max(1) as f64;
            ticks = t;
            // One entry per slice, also for slices a late wake-up
            // skipped, so the window's slices all have one.
            loop {
                steal.push(frac);
                slice_end += slice;
                if slice_end > now {
                    break;
                }
            }
        }
        if stopping {
            return HostSamples {
                peak_rss_mib: peak,
                steal,
            };
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Host CPU ticks `(steal, total)` from `/proc/stat` (zeros if
/// unreadable).
fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Current resident set size of this process, MiB (0 if unreadable).
pub fn rss_mib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0.0);
    pages * 4096.0 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A server that stalls on its first request: an open-loop client
    /// keeps sending on schedule, and every request queued behind the
    /// stall is charged the wait from its scheduled send time.
    #[test]
    fn open_loop_latency_counts_from_the_schedule() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(300);
        let server = thread::spawn(move || {
            let (s, _) = listener.accept().expect("accept");
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            let mut line = String::new();
            let mut n = 0;
            while r.read_line(&mut line).expect("read") > 0 {
                if n == 0 {
                    thread::sleep(stall);
                }
                n += 1;
                w.write_all(
                    format!("ok update d version={} r rows=1 generation=1\n", n + 1).as_bytes(),
                )
                .expect("write");
                line.clear();
            }
        });
        let lines: Vec<(usize, String)> = (0..20)
            .map(|i| (i, format!("append d r {i},{i}")))
            .collect();
        let run = open_loop(addr, &lines, 100.0, Instant::now(), Duration::from_secs(5));
        server.join().expect("fake server");
        assert_eq!(run.tally.ok, 20);
        assert_eq!(run.tally.failed(), 0);
        let lat: Vec<Duration> = run
            .samples
            .iter()
            .map(|s| s.latency.expect("answered"))
            .collect();
        // Sends stayed on schedule although no reply came back.
        assert!(run
            .samples
            .iter()
            .all(|s| s.late < Duration::from_millis(100)));
        // Request i was due at i*10 ms and answered after the stall.
        for (i, l) in lat.iter().enumerate().take(20) {
            let expected = stall.saturating_sub(Duration::from_millis(10 * i as u64));
            assert!(
                *l + Duration::from_millis(20) >= expected,
                "request {i}: {l:?} < {expected:?}"
            );
        }
        // A closed loop would have charged the stall to one request.
        let stalled = lat
            .iter()
            .filter(|l| **l >= Duration::from_millis(150))
            .count();
        assert!(stalled >= 10, "only {stalled} requests saw the stall");
    }
}
