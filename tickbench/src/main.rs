//! `va-tickbench`: the tick benchmark for `va-server`.
//!
//! One run drives one workload against the real [`va_server::FrontEnd`]
//! over loopback TCP for `--seconds`, closed loop, with tracing off. Each
//! market tick is replayed in-process right after the wire delivered it,
//! through [`Server::tick_relation_with_observer`] with a timestamping
//! observer. The replay gates the wire run (every line must match byte for
//! byte) and yields the per-layer split. See `tickbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path tickbench/Cargo.toml -- \
//!     --workload paper-batched --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod gate;
mod phases;
mod wire;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bondlab::{BondPricer, BondUniverse};
use va_server::proto::{self, RelationSpec, Request, WireQuery};
use va_server::{FrontEndStats, Server, SessionId};
use va_stream::BondRelation;

use gate::TickLines;
use phases::{Split, TickObserver, TickTrace};
use wire::{Via, Wire};
use workload::{Step, Workload};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bonds: Option<usize>,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// Crash reopens per run of a durable workload; `recovery_s` is their
/// median.
const REOPENS: usize = 5;

const USAGE: &str = "usage: va-tickbench --workload <paper-serial|paper-batched|tenants-durable> \
--seed <n> --seconds <s> --trace <0|1> [--bonds <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bonds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bonds" => args.bonds = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        return Err("--seconds must be >= 0".to_string());
    }
    Ok(args)
}

/// A scratch directory inside the benchmark's own tree, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> std::io::Result<Self> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

// ------------------------------------------------------------- statistics

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it — or, on a
/// run too short for that, with half the samples beyond it. Returns
/// `(value, percentile, samples beyond)`.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let beyond = 10.min((n - 1) / 2);
    let idx = n - 1 - beyond;
    (v[idx], 100.0 * (n - beyond) as f64 / n as f64, beyond)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The unsigned integer after `"field":` in a reply line.
fn field_u64(line: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ------------------------------------------------------------------ set-up

fn open_server(w: &Workload, dir: &Path) -> Result<Server, String> {
    if w.durable {
        Server::open_durable_catalog(BondPricer::default(), w.config, dir)
            .map_err(err("open data dir"))
    } else {
        let r = &w.relations[0];
        let relation = BondRelation::from_universe(&BondUniverse::generate(r.bonds, r.seed));
        Ok(Server::new(BondPricer::default(), relation, w.config))
    }
}

fn subscribe_line(relation: &str, query: &WireQuery, priority: u32) -> String {
    proto::render_request(&Request::Subscribe {
        relation: Some(relation.to_string()),
        query: query.clone(),
        priority,
    })
}

/// Subscribes over the wire and returns the new session id.
fn wire_subscribe(
    wire: &mut Wire,
    relation: &str,
    query: &WireQuery,
    priority: u32,
) -> Result<u64, String> {
    let reply = wire
        .request(Via::Subscriber, &subscribe_line(relation, query, priority))
        .map_err(err("subscribe"))?;
    subscribed_id(&reply)
}

/// The session id a `SUBSCRIBED` reply carries.
fn subscribed_id(reply: &str) -> Result<u64, String> {
    field_u64(reply, "session")
        .filter(|_| reply.starts_with("{\"type\":\"SUBSCRIBED\""))
        .ok_or_else(|| format!("subscribe refused: {reply}"))
}

/// A set-up server on the wire, with each relation's live sessions (the
/// newest one is the churn slot).
struct Live {
    wire: Wire,
    sessions: Vec<Vec<u64>>,
}

/// Universe generation, server open, relation creation and
/// subscriptions, all over the wire.
fn setup_wire(w: &Workload, dir: &Path) -> Result<Live, String> {
    let server = open_server(w, dir)?;
    let mut wire = Wire::start(server).map_err(err("start server loop"))?;
    let mut sessions = Vec::new();
    for rel in &w.relations {
        if w.durable {
            let line = proto::render_request(&Request::CreateRelation {
                name: rel.name.to_string(),
                spec: RelationSpec::Seeded {
                    seed: rel.seed,
                    count: rel.bonds as u64,
                },
            });
            let reply = wire.request(Via::Driver, &line).map_err(err("create"))?;
            if !reply.starts_with("{\"type\":\"CREATED\"") {
                return Err(format!("create refused: {reply}"));
            }
        }
        // Subscriptions are pipelined, as a client restoring its sessions
        // would send them.
        let lines: Vec<String> = rel
            .queries
            .iter()
            .map(|(query, priority)| subscribe_line(rel.name, query, *priority))
            .collect();
        let replies = wire
            .pipeline(Via::Subscriber, &lines)
            .map_err(err("subscribe"))?;
        let ids = replies
            .iter()
            .map(|r| subscribed_id(r))
            .collect::<Result<_, _>>()?;
        sessions.push(ids);
    }
    Ok(Live { wire, sessions })
}

/// The same set-up through the in-process API: what `setup_s` times.
/// It is the server's own set-up work, without the thread spawn and
/// connects of the loopback harness, whose kernel wake-up latency swings
/// several-fold with the state of the host.
fn setup_in_process(w: &Workload, dir: &Path) -> Result<(Server, Vec<Vec<u64>>), String> {
    let mut server = open_server(w, dir)?;
    let mut sessions = Vec::new();
    for rel in &w.relations {
        if w.durable {
            let relation =
                BondRelation::from_universe(&BondUniverse::generate(rel.bonds, rel.seed));
            server
                .create_relation(rel.name, relation, Some(rel.seed))
                .map_err(err("create relation"))?;
        }
        let mut ids = Vec::new();
        for (query, priority) in &rel.queries {
            ids.push(replay_subscribe(&mut server, rel.name, query, *priority)?);
        }
        sessions.push(ids);
    }
    Ok((server, sessions))
}

/// Times one in-process set-up on a fresh data dir.
fn timed_setup(w: &Workload, dir: &Path) -> Result<(f64, Server, Vec<Vec<u64>>), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err("reset data dir"))?;
    }
    let start = Instant::now();
    let (server, sessions) = setup_in_process(w, dir)?;
    Ok((start.elapsed().as_secs_f64(), server, sessions))
}

fn replay_subscribe(
    server: &mut Server,
    relation: &str,
    query: &WireQuery,
    priority: u32,
) -> Result<u64, String> {
    let n = server
        .catalog()
        .by_name(relation)
        .map_or(0, |t| t.relation().len());
    server
        .subscribe_to(relation, query.clone().into_query(n), priority)
        .map(|id| id.0)
        .map_err(err("replay subscribe"))
}

// ------------------------------------------------------------ the run

/// One `TICK` of the wire run.
struct WireTick {
    relation: usize,
    rate: f64,
    latency: f64,
    work: u64,
    lines: TickLines,
}

impl Live {
    /// Sends one script step over the wire; returns the tick it measured.
    fn step(&mut self, w: &Workload, step: &Step) -> Result<Option<WireTick>, String> {
        match step {
            &Step::Tick { relation, rate } => {
                let line = proto::render_request(&Request::Tick {
                    relation: Some(w.relations[relation].name.to_string()),
                    rate,
                });
                let results = self.sessions[relation].len();
                let (latency, lines) = self.wire.tick(&line, results).map_err(err("tick"))?;
                Ok(Some(WireTick {
                    relation,
                    rate,
                    latency,
                    work: field_u64(&lines.done, "work_units").unwrap_or(0),
                    lines,
                }))
            }
            Step::Churn {
                relation,
                query,
                priority,
            } => {
                let name = w.relations[*relation].name;
                let old = self.sessions[*relation].pop().expect("churn slot exists");
                let line = proto::render_request(&Request::Unsubscribe {
                    relation: Some(name.to_string()),
                    session: old,
                });
                self.wire
                    .request(Via::Subscriber, &line)
                    .map_err(err("unsubscribe"))?;
                let id = wire_subscribe(&mut self.wire, name, query, *priority)?;
                self.sessions[*relation].push(id);
                Ok(None)
            }
        }
    }
}

/// Journal segment sizes and the newest snapshot seq of a data dir.
#[derive(Default)]
struct DirState {
    segments: BTreeMap<String, u64>,
    newest_snapshot: Option<u64>,
    bytes: u64,
}

fn dir_state(dir: &Path) -> DirState {
    let mut state = DirState::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return state;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_or(0, |m| m.len());
        state.bytes += len;
        if name.starts_with("journal-") {
            state.segments.insert(name, len);
        } else if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            state.newest_snapshot = state.newest_snapshot.max(Some(seq));
        }
    }
    state
}

/// One traced `TICK` of the replay.
struct ReplayTick {
    trace: TickTrace,
    /// Whether the durable server had already ticked this relation at this
    /// exact rate, so the pool was seeded warm.
    warm: bool,
    /// Whether the commit wrote a snapshot.
    snapshot: bool,
    journal_bytes: u64,
    /// Seconds spent rendering the tick's wire lines.
    encode: f64,
}

/// The traced in-process replay, one step behind the wire.
struct Replay {
    server: Server,
    sessions: Vec<Vec<u64>>,
    dir: PathBuf,
    seen: HashSet<(usize, u64)>,
    ticks: Vec<ReplayTick>,
    mismatches: u64,
    first_mismatch: Option<String>,
}

impl Replay {
    /// A replay of the server `setup_in_process` built in `dir`.
    fn new(server: Server, sessions: Vec<Vec<u64>>, dir: PathBuf) -> Self {
        Self {
            server,
            sessions,
            dir,
            seen: HashSet::new(),
            ticks: Vec::new(),
            mismatches: 0,
            first_mismatch: None,
        }
    }

    /// Replays one script step; a tick is traced and gated against what
    /// the wire delivered for it.
    fn step(&mut self, w: &Workload, step: &Step, wire: Option<&WireTick>) -> Result<(), String> {
        match step {
            &Step::Tick { relation, rate } => {
                let name = w.relations[relation].name;
                let before = w.durable.then(|| dir_state(&self.dir));
                let mut obs = TickObserver::start();
                let res = self
                    .server
                    .tick_relation_with_observer(name, rate, &mut obs);
                let trace = obs.finish();
                let res = res.map_err(err("replay tick"))?;
                let encode_start = Instant::now();
                let want = TickLines::render(&self.server, name, &res);
                let encode = encode_start.elapsed().as_secs_f64();
                let got = wire.ok_or("wire run is missing a tick")?;
                if let Err(diff) = gate::check(&want, &got.lines) {
                    self.mismatches += 1;
                    self.first_mismatch.get_or_insert(diff);
                }
                let (snapshot, journal_bytes) = match before {
                    Some(before) => {
                        let after = dir_state(&self.dir);
                        let appended = after
                            .segments
                            .iter()
                            .map(|(n, &len)| {
                                len.saturating_sub(before.segments.get(n).copied().unwrap_or(0))
                            })
                            .sum();
                        (after.newest_snapshot != before.newest_snapshot, appended)
                    }
                    None => (false, 0),
                };
                self.ticks.push(ReplayTick {
                    trace,
                    warm: w.durable && !self.seen.insert((relation, rate.to_bits())),
                    snapshot,
                    journal_bytes,
                    encode,
                });
            }
            Step::Churn {
                relation,
                query,
                priority,
            } => {
                let name = w.relations[*relation].name;
                let old = self.sessions[*relation].pop().expect("churn slot exists");
                self.server
                    .unsubscribe_in(name, SessionId(old))
                    .map_err(err("replay unsubscribe"))?;
                let id = replay_subscribe(&mut self.server, name, query, *priority)?;
                self.sessions[*relation].push(id);
            }
        }
        Ok(())
    }
}

/// Everything one run measured.
struct Measured {
    wire: Vec<WireTick>,
    replay: Replay,
    /// Market ticks run.
    market_ticks: usize,
    /// `TICK`s in the first pass.
    first_pass_ticks: usize,
    /// Live sessions per relation at the end.
    sessions: Vec<Vec<u64>>,
    setup_times: Vec<f64>,
    requests: u64,
    errors: u64,
    frontend: FrontEndStats,
}

/// Sets up, then runs market ticks over the wire for `seconds` (and at
/// least the first pass), replaying each market tick in-process right
/// after the wire has delivered it. Interleaving puts the wire and replay
/// samples of a run under the same machine conditions. Spare timed
/// set-ups are spread over the run for the same reason. Returns the
/// measurements and the wire server, which the caller drops without a
/// clean shutdown.
fn measure(w: &Workload, work: &Path, seconds: f64) -> Result<(Measured, Server), String> {
    let mut live = setup_wire(w, &work.join("wire"))?;
    let replay_dir = work.join("replay");
    let (took, server, sessions) = timed_setup(w, &replay_dir)?;
    let mut setup_times = vec![took];
    let mut replay = Replay::new(server, sessions, replay_dir);
    if replay.sessions != live.sessions {
        return Err("replay assigned different session ids".to_string());
    }
    let spare_dir = work.join("setup");
    let mut script = w.script();
    let mut wire = Vec::new();
    let (mut market_ticks, mut first_pass_ticks) = (0, 0);
    let start = Instant::now();
    while market_ticks < w.first_pass || start.elapsed().as_secs_f64() < seconds {
        let steps = script.next_market_tick(w);
        let first = wire.len();
        for step in &steps {
            wire.extend(live.step(w, step)?);
        }
        let mut delivered = wire[first..].iter();
        for step in &steps {
            let got = matches!(step, Step::Tick { .. })
                .then(|| delivered.next())
                .flatten();
            replay.step(w, step, got)?;
        }
        market_ticks += 1;
        if market_ticks == w.first_pass {
            first_pass_ticks = wire.len();
        }
        let due = if seconds > 0.0 {
            (SETUPS as f64 * start.elapsed().as_secs_f64() / seconds).ceil() as usize
        } else {
            SETUPS
        };
        while setup_times.len() < due.min(SETUPS) {
            setup_times.push(timed_setup(w, &spare_dir)?.0);
        }
    }
    while setup_times.len() < SETUPS {
        setup_times.push(timed_setup(w, &spare_dir)?.0);
    }
    if replay.sessions != live.sessions {
        return Err("replay ended with different live sessions".to_string());
    }
    let (requests, errors) = (live.wire.requests, live.wire.errors);
    let (server, frontend) = live.wire.finish().map_err(err("stop server loop"))?;
    Ok((
        Measured {
            wire,
            replay,
            market_ticks,
            first_pass_ticks,
            sessions: live.sessions,
            setup_times,
            requests,
            errors,
            frontend,
        },
        server,
    ))
}

// --------------------------------------------------------------- recovery

/// Reopens the wire run's data dir (left as a crash would leave it)
/// [`REOPENS`] times; checks every recovered relation's tick count, live
/// sessions and last answers against the wire; returns the reopen times
/// and the journal events the last open replayed.
fn recover(w: &Workload, dir: &Path, run: &Measured) -> Result<(Vec<f64>, u64), String> {
    let mut times = Vec::with_capacity(REOPENS);
    let mut replayed = 0;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let server = Server::open_durable_catalog(BondPricer::default(), w.config, dir)
            .map_err(err("reopen"))?;
        times.push(start.elapsed().as_secs_f64());
        replayed = server.last_recovery().map_or(0, |r| r.replayed_events);
        for (ri, rel) in w.relations.iter().enumerate() {
            let tenant = server
                .catalog()
                .by_name(rel.name)
                .ok_or_else(|| format!("relation {} lost in recovery", rel.name))?;
            let ticked: Vec<&WireTick> = run.wire.iter().filter(|t| t.relation == ri).collect();
            if tenant.ticks() != ticked.len() as u64 {
                return Err(format!(
                    "{}: recovered {} ticks, ran {}",
                    rel.name,
                    tenant.ticks(),
                    ticked.len()
                ));
            }
            let live: Vec<u64> = tenant
                .sessions()
                .sessions()
                .iter()
                .map(|s| s.id.0)
                .collect();
            if live != run.sessions[ri] {
                return Err(format!("{}: recovered sessions {live:?}", rel.name));
            }
            let Some(last) = ticked.last() else { continue };
            for &sid in &live {
                let (_, answer) = server
                    .resume_in(rel.name, SessionId(sid))
                    .map_err(err("resume"))?;
                let got = answer
                    .map(|a| proto::result(rel.name, tenant.ticks(), last.rate, SessionId(sid), a));
                let prefix = format!("{{\"type\":\"RESULT\",\"session\":{sid},");
                let want = last.lines.results.iter().find(|l| l.starts_with(&prefix));
                if got.as_ref() != want {
                    return Err(format!(
                        "{} session {sid}: recovered answer differs from the wire",
                        rel.name
                    ));
                }
            }
        }
    }
    Ok((times, replayed))
}

// ---------------------------------------------------------------- report

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(workload: &str, title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for x in metrics {
        println!(
            "  {:<30} {:>16.6} {:<8} workload={workload}",
            x.name, x.value, x.unit
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = Workload::new(&args.workload, args.seed, args.bonds)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let work = WorkDir::new().map_err(err("work dir"))?;
    let (run, server) = measure(&w, &work.0, args.seconds)?;
    drop(server); // no clean shutdown: recovery below starts from a crash
    let wire_dir = work.0.join("wire");
    let data_dir_bytes = dir_state(&wire_dir).bytes;
    let (recovery, replayed_events) = if w.durable {
        recover(&w, &wire_dir, &run)?
    } else {
        (Vec::new(), 0)
    };
    let replay = &run.replay;

    // ---- end-to-end
    let latencies: Vec<f64> = run.wire.iter().map(|t| t.latency * 1e3).collect();
    let (tail_ms, tail_pct, tail_beyond) = tail(&latencies);
    let total_work: u64 = run.wire.iter().map(|t| t.work).sum();
    let tick_seconds: f64 = run.wire.iter().map(|t| t.latency).sum();
    let first = &run.wire[..run.first_pass_ticks];
    let first_work: u64 = first.iter().map(|t| t.work).sum();
    let (first_partials, first_results) = partial_lines(first);
    let partial_answer_frac = ratio(first_partials as f64, first_results as f64);
    let (all_partials, all_results) = partial_lines(&run.wire);
    let failed =
        run.errors + replay.mismatches + run.frontend.evicted_slow + run.frontend.dropped_io;
    let attempted = run.requests.max(1);
    let recovery_s = median(&recovery);

    let e2e = vec![
        m("tick_p50_ms", median(&latencies), "ms"),
        m("tick_tail_ms", tail_ms, "ms"),
        m(
            "work_units_per_s",
            ratio(total_work as f64, tick_seconds),
            "1/s",
        ),
        m(
            "work_units_per_tick",
            ratio(first_work as f64, run.first_pass_ticks as f64),
            "count",
        ),
        m("setup_s", median(&run.setup_times), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    // ---- per layer
    let n = replay.ticks.len() as f64;
    let mut sum = Split::default();
    let mut traced_ms = Vec::with_capacity(replay.ticks.len());
    let (mut rounds, mut cands, mut selected, mut admitted, mut iters, mut iter_work) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut warm, mut exhausted, mut journal_bytes, mut encode) = (0u64, 0u64, 0u64, 0.0);
    let (mut commit, mut snap): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for t in &replay.ticks {
        let s = &t.trace.split;
        sum.add(s);
        traced_ms.push(s.total() * 1e3);
        rounds += t.trace.rounds;
        cands += t.trace.candidates;
        selected += t.trace.selected;
        admitted += t.trace.admitted;
        iters += t.trace.iterations;
        iter_work += t.trace.iteration_work;
        warm += u64::from(t.warm);
        exhausted += u64::from(t.trace.budget_exhausted);
        journal_bytes += t.journal_bytes;
        encode += t.encode;
        if t.snapshot {
            snap.push(s.commit * 1e3);
        } else {
            commit.push(s.commit * 1e3);
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let total = sum.total();
    let traced_p50 = median(&traced_ms);
    let per_layer = vec![
        m("pool.invoke_ms", ratio(sum.pool * 1e3, n), "ms"),
        m("pool.warm_hit_frac", ratio(warm as f64, n), "fraction"),
        m(
            "sched.demand_select_ms",
            ratio(sum.demand_select * 1e3, n),
            "ms",
        ),
        m(
            "sched.demand_select_share",
            ratio(sum.demand_select, total),
            "fraction",
        ),
        m("sched.rounds_per_tick", ratio(rounds as f64, n), "count"),
        m(
            "sched.candidates_per_round",
            ratio(cands as f64, rounds as f64),
            "count",
        ),
        m("sched.execute_ms", ratio(sum.execute * 1e3, n), "ms"),
        m("sched.execute_share", ratio(sum.execute, total), "fraction"),
        m("sched.iterations_per_tick", ratio(iters as f64, n), "count"),
        m(
            "sched.admitted_per_round",
            ratio(admitted as f64, rounds as f64),
            "count",
        ),
        m(
            "sched.admit_ratio",
            ratio(admitted as f64, selected as f64),
            "fraction",
        ),
        m(
            "kernel.work_units_per_s",
            ratio(iter_work as f64, sum.execute),
            "1/s",
        ),
        m("demand.answer_ms", ratio(sum.answer * 1e3, n), "ms"),
        m(
            "sched.budget_exhausted_frac",
            ratio(exhausted as f64, n),
            "fraction",
        ),
        m("server.commit_ms", mean(&commit), "ms"),
        m("persist.snapshot_ms", mean(&snap), "ms"),
        m(
            "persist.journal_bytes_per_tick",
            ratio(journal_bytes as f64, n),
            "B",
        ),
        m("persist.replayed_events", replayed_events as f64, "count"),
        m("persist.data_dir_bytes", data_dir_bytes as f64, "B"),
        m("proto.encode_us", ratio(encode * 1e6, n), "us"),
        m(
            "net.results_per_payload",
            ratio(
                run.frontend.results_delivered as f64,
                run.frontend.payloads_serialized as f64,
            ),
            "count",
        ),
        m("net.wire_ms", median(&latencies) - traced_p50, "ms"),
        m("unattributed_ms", ratio(sum.unattributed * 1e3, n), "ms"),
        m("replay.tick_p50_ms", traced_p50, "ms"),
        m("recovery_s", recovery_s, "s"),
        m("partial_answer_frac", partial_answer_frac, "fraction"),
    ];

    let correct = failed == 0;
    println!(
        "tickbench workload={} seed={} seconds={} bonds={} market_ticks={} ticks={} setups={}",
        w.name,
        args.seed,
        args.seconds,
        w.relations
            .iter()
            .map(|r| r.bonds.to_string())
            .collect::<Vec<_>>()
            .join("+"),
        run.market_ticks,
        run.wire.len(),
        run.setup_times.len(),
    );
    print_metrics(w.name, "end-to-end (wire, untraced)", &e2e);
    println!(
        "  tick_tail_ms is p{tail_pct:.1}: {tail_beyond} of {} samples beyond it",
        latencies.len()
    );
    println!(
        "  {:<30} {:>16.6} {:<8} workload={}",
        "partial_answer_frac", partial_answer_frac, "fraction", w.name
    );
    println!(
        "  {:<30} {:>16.6} {:<8} workload={} ({failed} of {attempted} requests)",
        "failed_request_frac",
        ratio(failed as f64, attempted as f64),
        "fraction",
        w.name
    );
    if w.durable {
        println!(
            "  {:<30} {:>16.6} {:<8} workload={} (median of {} reopens)",
            "recovery_s",
            recovery_s,
            "s",
            w.name,
            recovery.len()
        );
    }
    print_metrics(w.name, "per layer (in-process replay, traced)", &per_layer);
    println!(
        "shares of traced tick time: pool {:.4} demand_select {:.4} execute {:.4} answer {:.4} commit {:.4} unattributed {:.4}",
        ratio(sum.pool, total),
        ratio(sum.demand_select, total),
        ratio(sum.execute, total),
        ratio(sum.answer, total),
        ratio(sum.commit, total),
        ratio(sum.unattributed, total),
    );
    println!(
        "input properties: warm_hit_share {:.4} partial_share {:.4} budget_exhausted_share {:.4} ({} traced ticks)",
        ratio(warm as f64, n),
        ratio(all_partials as f64, all_results as f64),
        ratio(exhausted as f64, n),
        replay.ticks.len()
    );
    println!(
        "gate: {} of {} ticks byte-identical to the traced replay{}",
        replay.ticks.len() as u64 - replay.mismatches,
        replay.ticks.len(),
        replay
            .first_mismatch
            .as_ref()
            .map_or(String::new(), |d| format!("; first mismatch: {d}"))
    );
    let metrics = if args.trace { &per_layer } else { &e2e };
    println!("{}", json_line(correct, attempted, failed, metrics));
    Ok(correct)
}

/// `RESULT` lines of `ticks`, and how many of them are partial.
fn partial_lines(ticks: &[WireTick]) -> (usize, usize) {
    let results = ticks.iter().flat_map(|t| &t.lines.results);
    let partial = results
        .clone()
        .filter(|l| l.contains("\"status\":\"partial\""))
        .count();
    (partial, results.count())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("va-tickbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("va-tickbench: correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("va-tickbench: {e}");
            ExitCode::FAILURE
        }
    }
}
