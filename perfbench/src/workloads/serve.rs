//! `serve`: a loopback analysis daemon under a closed loop of clients.
//!
//! Each client sends its next request only after the previous reply
//! arrives, one connection per request. The mix is 85% cache hits over
//! a hot set of the paper's configurations, 10% misses on fresh seeded
//! duplex configurations (each a fig7-class solve) and 5% invalid
//! bodies that must be refused with 400. The mix, the hot set and the
//! client count are assumptions: no measured request mix exists.

use super::{Phase, Workload, MAX_FAILURE_MESSAGES};
use crate::stats::{quantile, Fnv, Reservoir, Rng};
use rsmem::experiments::{SCRUB_PERIODS_S, SEU_RATES_PER_BIT_DAY};
use rsmem_obs::json;
use rsmem_service::{Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Closed-loop clients; at most the cores of the host this was sized on.
const CLIENTS: u64 = 2;

/// Shares of the mix, in percent: hits, then misses; the rest invalid.
const HIT_PERCENT: usize = 85;
const MISS_PERCENT: usize = 10;

/// Grid points of every analyze request.
const POINTS: usize = 25;

/// Bodies the service must refuse with 400.
const INVALID_BODIES: [&str; 4] = [
    r#"{"system": "triplex"}"#,
    r#"{"points": 1}"#,
    r#"{"seu_per_bit_day": "often"}"#,
    r#"{"system": "duplex", "scrub_period_s": 900"#,
];

/// Per-socket timeout: a stalled reply fails its request instead of
/// hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Invalid,
}

/// One parsed reply.
struct Reply {
    status: u16,
    cache: Option<String>,
    body: String,
}

/// One HTTP/1.1 request on a fresh connection.
fn post(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply");
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let cache = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-cache")
            .then(|| value.trim().to_owned())
    });
    Ok(Reply {
        status,
        cache,
        body: body.to_owned(),
    })
}

/// The hot set: the paper's SEU rates × scrub periods × both
/// arrangements.
fn hot_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for system in ["simplex", "duplex"] {
        for seu in SEU_RATES_PER_BIT_DAY {
            for scrub in SCRUB_PERIODS_S {
                bodies.push(format!(
                    r#"{{"system": "{system}", "seu_per_bit_day": {seu:e}, "scrub_period_s": {scrub}, "points": {POINTS}}}"#
                ));
            }
        }
    }
    bodies
}

/// A fresh duplex configuration: 48 h, seeded SEU rate and scrub period.
fn miss_body(rng: &mut Rng) -> String {
    format!(
        r#"{{"system": "duplex", "seu_per_bit_day": {:e}, "scrub_period_s": {}, "horizon_hours": 48, "points": {POINTS}}}"#,
        rng.uniform(1e-6, 3e-5),
        rng.uniform(600.0, 3600.0)
    )
}

/// What one client observed.
struct ClientLog {
    latencies: Reservoir<(Class, f64)>,
    latency_sum_ms: f64,
    failed: u64,
    failures: Vec<String>,
    hits: u64,
    misses: u64,
    shed: u64,
}

pub struct Serve {
    seed: u64,
    phases: u64,
    server: Option<Server>,
    hot: Vec<(String, String)>,
    fingerprint: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        Serve {
            seed,
            phases: 0,
            server: None,
            hot: Vec::new(),
            fingerprint: 0,
        }
    }

    /// One client's closed loop until `deadline`.
    fn client(&self, addr: SocketAddr, stream: u64, deadline: Instant) -> ClientLog {
        let mut rng = Rng::new(self.seed, stream);
        let mut log = ClientLog {
            latencies: Reservoir::new(stream),
            latency_sum_ms: 0.0,
            failed: 0,
            failures: Vec::new(),
            hits: 0,
            misses: 0,
            shed: 0,
        };
        while log.latencies.seen() == 0 || Instant::now() < deadline {
            let roll = rng.below(100);
            let (class, body) = if roll < HIT_PERCENT {
                (Class::Hit, self.hot[rng.below(self.hot.len())].0.clone())
            } else if roll < HIT_PERCENT + MISS_PERCENT {
                (Class::Miss, miss_body(&mut rng))
            } else {
                let body = INVALID_BODIES[rng.below(INVALID_BODIES.len())];
                (Class::Invalid, body.to_owned())
            };
            let started = Instant::now();
            let reply = post(addr, &body);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            log.latencies.push((class, ms));
            log.latency_sum_ms += ms;
            if let Err(message) = self.check(class, &body, reply, &mut log) {
                log.failed += 1;
                if log.failures.len() < MAX_FAILURE_MESSAGES {
                    log.failures.push(message);
                }
            }
        }
        log
    }

    fn check(
        &self,
        class: Class,
        body: &str,
        reply: std::io::Result<Reply>,
        log: &mut ClientLog,
    ) -> Result<(), String> {
        let reply = reply.map_err(|e| format!("{class:?} request: {e}"))?;
        match reply.cache.as_deref() {
            Some("hit") => log.hits += 1,
            Some("miss" | "shared") => log.misses += 1,
            _ => {}
        }
        if reply.status == 503 {
            log.shed += 1;
        }
        let expected = if class == Class::Invalid { 400 } else { 200 };
        if reply.status != expected {
            return Err(format!(
                "{class:?} request {body}: status {}, expected {expected}",
                reply.status
            ));
        }
        match class {
            Class::Hit => {
                let warm = self.hot.iter().find(|(b, _)| b == body).map(|(_, r)| r);
                if warm != Some(&reply.body) {
                    return Err(format!("hit {body}: reply differs from its warm-up reply"));
                }
            }
            Class::Miss => {
                let points = json::parse(&reply.body)
                    .ok()
                    .and_then(|doc| doc.get("ber").and_then(|b| b.as_array().map(<[_]>::len)));
                if points != Some(POINTS) {
                    return Err(format!("miss {body}: reply lacks {POINTS} ber values"));
                }
            }
            Class::Invalid => {}
        }
        Ok(())
    }
}

impl Workload for Serve {
    /// Binds a fresh daemon and warms its cache with the hot set.
    fn setup(&mut self) -> Result<(), String> {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".into(),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("serve: bind: {e}"))?;
        let addr = server.local_addr();
        self.server = Some(server);
        let mut hot = Vec::new();
        let mut hash = Fnv::default();
        for body in hot_bodies() {
            let reply = post(addr, &body).map_err(|e| format!("serve: warm-up: {e}"))?;
            if reply.status != 200 {
                return Err(format!("serve: warm-up {body}: status {}", reply.status));
            }
            hash.write(reply.body.as_bytes());
            hot.push((body, reply.body));
        }
        self.hot = hot;
        self.fingerprint = hash.finish();
        Ok(())
    }

    /// Stops the daemon and joins its threads.
    fn teardown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn run(&mut self, budget: Duration, _traced: bool) -> Phase {
        let mut phase = Phase::new(budget);
        let addr = self
            .server
            .as_ref()
            .expect("setup binds the server")
            .local_addr();
        let deadline = Instant::now() + budget;
        let first_stream = 1 + self.phases * CLIENTS;
        self.phases += 1;
        let this = &*self;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || this.client(addr, first_stream + c, deadline)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut by_class: [Vec<f64>; 3] = Default::default();
        let (mut hits, mut misses, mut shed) = (0, 0, 0);
        for log in logs {
            phase.ops += log.latencies.seen();
            phase.latency_sum_ms += log.latency_sum_ms;
            for &(class, ms) in log.latencies.items() {
                phase.latencies_ms.push(ms);
                by_class[class as usize].push(ms * 1e3);
            }
            phase.failed += log.failed - log.failures.len() as u64;
            for message in log.failures {
                phase.fail(message);
            }
            hits += log.hits;
            misses += log.misses;
            shed += log.shed;
        }
        phase.work = (phase.ops - phase.failed) as f64;
        let [hit_us, miss_us, invalid_us] = by_class;
        for (name, value) in [
            ("service.hit_p50_us", quantile(&hit_us, 0.5)),
            ("service.miss_p50_us", quantile(&miss_us, 0.5)),
            ("service.invalid_p50_us", quantile(&invalid_us, 0.5)),
            (
                "service.p99_us",
                quantile(phase.latencies_ms.items(), 0.99) * 1e3,
            ),
            (
                "service.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("service.shed", shed as f64),
        ] {
            phase.layer_values.insert(name, value);
        }
        phase.finish()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.teardown();
    }
}
