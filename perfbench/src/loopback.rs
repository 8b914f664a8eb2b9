//! The benchmark's own HTTP origin and its closed-loop client driver
//! for the inline-proxy workload.
//!
//! The origin serves each replayed transaction's rendered response
//! (`synthtraffic::wire::replay_response_bytes`), keyed by the request's
//! `X-Replay-Id`, and hangs up without answering status-0
//! transactions. Its threads block in `accept`, so an idle origin costs
//! nothing and a new connection is served at once.
//!
//! Each driver client replays its share of the victims in timestamp
//! order, one connection per transaction: connect, PROXY v1 preamble
//! with the episode's endpoints, annotated request, then read until the
//! connection closes. A client sends its next request only after the
//! previous response completed (a closed loop), as a victim's browser
//! waits for each redirect hop.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nettrace::proxyproto::encode_v1_tcp4;
use nettrace::wiretap::REPLAY_ID_HEADER;
use nettrace::HttpTransaction;
use synthtraffic::wire::{replay_request_bytes, replay_response_bytes};

use crate::sys;

/// Socket timeout for both sides; a stuck peer fails the transaction
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What the clients send and what they must get back, per replay id.
pub struct Script {
    /// Request bytes without a PROXY preamble.
    pub requests: Vec<Vec<u8>>,
    /// PROXY v1 preambles announcing each episode's endpoints.
    pub preambles: Vec<Vec<u8>>,
    /// The origin's response, `None` for a hang-up.
    pub responses: Arc<Vec<Option<Vec<u8>>>>,
    /// Replay ids per client: clients partitioned by address, each
    /// share in timestamp order.
    pub plans: Vec<Vec<usize>>,
}

impl Script {
    /// Renders `transactions` (replay order) for `clients` clients.
    /// Client addresses go whole to the client with the fewest
    /// transactions so far, largest first, which balances the shares.
    pub fn new(transactions: &[HttpTransaction], clients: usize) -> Script {
        let mut by_addr: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
        for (id, tx) in transactions.iter().enumerate() {
            by_addr.entry(tx.client.addr).or_default().push(id);
        }
        let mut groups: Vec<Vec<usize>> = by_addr.into_values().collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let mut plans: Vec<Vec<usize>> = vec![Vec::new(); clients.max(1)];
        for group in groups {
            let lightest = (0..plans.len()).min_by_key(|&c| plans[c].len()).expect("a client");
            plans[lightest].extend(group);
        }
        for plan in &mut plans {
            plan.sort_unstable();
        }
        Script {
            requests: transactions
                .iter()
                .enumerate()
                .map(|(id, tx)| replay_request_bytes(tx, id as u64))
                .collect(),
            preambles: transactions
                .iter()
                .map(|tx| {
                    encode_v1_tcp4(
                        (tx.client.addr, tx.client.port),
                        (tx.server.addr, tx.server.port),
                    )
                })
                .collect(),
            responses: Arc::new(transactions.iter().map(replay_response_bytes).collect()),
            plans,
        }
    }
}

/// The origin server: `threads` threads blocking in `accept` on one
/// listener.
pub struct Origin {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cpu: Vec<Arc<AtomicU64>>,
    handles: Vec<JoinHandle<()>>,
}

impl Origin {
    pub fn start(responses: Arc<Vec<Option<Vec<u8>>>>, threads: usize) -> io::Result<Origin> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut cpu = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..threads.max(1) {
            let listener = listener.try_clone()?;
            let responses = responses.clone();
            let stop = stop.clone();
            let spent = Arc::new(AtomicU64::new(0));
            cpu.push(spent.clone());
            handles.push(std::thread::spawn(move || serve(&listener, &responses, &stop, &spent)));
        }
        Ok(Origin { addr, stop, cpu, handles })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU the origin threads have burned so far, nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// Stops every thread (one wake-up connection each) and joins them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in &self.handles {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn serve(
    listener: &TcpListener,
    responses: &[Option<Vec<u8>>],
    stop: &AtomicBool,
    spent: &AtomicU64,
) {
    let mut head = Vec::with_capacity(8192);
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        if let Some(id) = read_request_id(&mut stream, &mut head) {
            if let Some(Some(body)) = responses.get(id) {
                let _ = stream.write_all(body);
            }
        }
        drop(stream);
        spent.store(sys::thread_cpu_ns(), Ordering::Release);
    }
}

/// Reads one request head and returns its `X-Replay-Id`.
fn read_request_id(stream: &mut TcpStream, head: &mut Vec<u8>) -> Option<usize> {
    head.clear();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            let text = std::str::from_utf8(&head[..end]).ok()?;
            return text.split("\r\n").find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case(REPLAY_ID_HEADER)
                    .then(|| value.trim().parse().ok())
                    .flatten()
            });
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// One client's outcome.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub first_start: Option<Instant>,
    pub last_end: Option<Instant>,
    /// `(replay id, connect started, response complete)` per request
    /// that completed.
    pub requests: Vec<(usize, Instant, Instant)>,
    pub connect_failures: u64,
    pub io_failures: u64,
    /// Responses that differ from the origin's bytes.
    pub mismatches: u64,
    /// The client thread's CPU, nanoseconds.
    pub cpu_ns: u64,
}

impl ClientRun {
    pub fn failed(&self) -> u64 {
        self.connect_failures + self.io_failures + self.mismatches
    }
}

/// Replays `plan` against `addr`, one connection per request, each
/// response read to the close and compared with the origin's bytes.
pub fn drive(addr: SocketAddr, script: &Script, plan: &[usize], proxy_protocol: bool) -> ClientRun {
    let mut run = ClientRun { requests: Vec::with_capacity(plan.len()), ..ClientRun::default() };
    let mut got = Vec::with_capacity(64 * 1024);
    for &id in plan {
        let started = Instant::now();
        run.first_start.get_or_insert(started);
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                run.connect_failures += 1;
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        got.clear();
        let sent = (!proxy_protocol || stream.write_all(&script.preambles[id]).is_ok())
            && stream.write_all(&script.requests[id]).is_ok();
        if !sent || stream.read_to_end(&mut got).is_err() {
            run.io_failures += 1;
            continue;
        }
        let done = Instant::now();
        let expected: &[u8] = script.responses[id].as_deref().unwrap_or(&[]);
        if got != expected {
            run.mismatches += 1;
        }
        run.requests.push((id, started, done));
        run.last_end = Some(done);
    }
    run.cpu_ns = sys::thread_cpu_ns();
    run
}

/// Runs every client plan concurrently against `addr`, each on its own
/// thread, released together; `on_done` runs once all have finished.
pub fn drive_all(
    addr: SocketAddr,
    script: &Arc<Script>,
    proxy_protocol: bool,
    on_done: impl FnOnce() + Send + 'static,
) -> JoinHandle<Vec<ClientRun>> {
    let script = script.clone();
    std::thread::spawn(move || {
        let clients: Vec<JoinHandle<ClientRun>> = (0..script.plans.len())
            .map(|c| {
                let script = script.clone();
                std::thread::spawn(move || drive(addr, &script, &script.plans[c], proxy_protocol))
            })
            .collect();
        let runs = clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        on_done();
        runs
    })
}

/// Latencies of completed requests, microseconds, sorted.
pub fn latencies_us(runs: &[ClientRun]) -> Vec<f64> {
    let mut v: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.requests.iter().map(|(_, s, e)| (*e - *s).as_secs_f64() * 1e6))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// One second of a pass, from the first connect: requests completed
/// in it and their latency percentiles.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub completed: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// The full one-second windows of a pass (the last, partial second is
/// dropped).
pub fn windows(runs: &[ClientRun]) -> Vec<Window> {
    let Some(first) = runs.iter().filter_map(|r| r.first_start).min() else {
        return Vec::new();
    };
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for (_, started, done) in runs.iter().flat_map(|r| r.requests.iter()) {
        let w = (*done - first).as_secs() as usize;
        if buckets.len() <= w {
            buckets.resize_with(w + 1, Vec::new);
        }
        buckets[w].push((*done - *started).as_secs_f64() * 1e6);
    }
    buckets.pop();
    buckets
        .into_iter()
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            Window {
                completed: b.len() as f64,
                p50_us: sys::percentile(&b, 50.0),
                p90_us: sys::percentile(&b, 90.0),
                p99_us: sys::percentile(&b, 99.0),
            }
        })
        .collect()
}

/// Wall span from the first connect to the last response, seconds.
pub fn active_wall_s(runs: &[ClientRun]) -> f64 {
    let first = runs.iter().filter_map(|r| r.first_start).min();
    let last = runs.iter().filter_map(|r| r.last_end).max();
    match (first, last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthtraffic::wire::{merged_wire_transactions, wire_episode_set};

    #[test]
    fn plans_partition_clients_and_keep_timestamp_order() {
        let txs = merged_wire_transactions(&wire_episode_set(5, 3, 3));
        let script = Script::new(&txs, 2);
        let mut all: Vec<usize> = script.plans.concat();
        all.sort_unstable();
        assert_eq!(all, (0..txs.len()).collect::<Vec<_>>());
        for plan in &script.plans {
            assert!(plan.windows(2).all(|w| txs[w[0]].ts < txs[w[1]].ts));
        }
        let a: std::collections::HashSet<_> =
            script.plans[0].iter().map(|&i| txs[i].client.addr).collect();
        assert!(script.plans[1].iter().all(|&i| !a.contains(&txs[i].client.addr)));
    }

    #[test]
    fn origin_serves_every_script_response_directly() {
        let txs = merged_wire_transactions(&wire_episode_set(6, 1, 1));
        let script = Arc::new(Script::new(&txs, 2));
        let origin = Origin::start(script.responses.clone(), 2).unwrap();
        let runs = drive_all(origin.addr(), &script, false, || {}).join().unwrap();
        origin.stop();
        assert_eq!(runs.iter().map(ClientRun::failed).sum::<u64>(), 0);
        assert_eq!(latencies_us(&runs).len(), txs.len());
    }
}
