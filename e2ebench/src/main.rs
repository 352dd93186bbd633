//! End-to-end and per-layer benchmark of the wgtt simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <convoy_udp|commute_tcp_faults|corridor_ring> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload back to back for `--seconds`, checks every run's
//! output, and prints a table followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer split. See `e2ebench/README.md`.

mod alloc;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::LAYERS;
use wgtt_core::metrics::SystemMetrics;
use wgtt_core::{run_sharded, Scenario, ShardedRunResult, ShardedScenario, WgttWorld};
use workloads::{Input, Workload, CORRIDOR_WORKERS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// The observable result of one run, reduced to what the checks and the
/// per-layer counters need.
struct Outcome {
    /// FNV-1a over everything the run's fingerprint covers.
    fingerprint: u64,
    events: u64,
    goodput_mbps: f64,
    mpdu_attempts: u64,
    mpdu_successes: u64,
    switches: u64,
    stop_retries: u64,
    uplink_copies: u64,
    uplink_duplicates: u64,
    takeovers: u64,
    ap_crashes: u64,
    delivered_bytes: u64,
    migrations: u64,
    migration_retries: u64,
    migration_dups_dropped: u64,
    migration_aborts: u64,
    seam_forwarded: u64,
    residue_transferred: u64,
    departed_data_drops: u64,
    departed_data_bytes: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }
}

fn outcome(worlds: &[&WgttWorld], sys: &SystemMetrics, events: u64, sim_traffic_s: f64) -> Outcome {
    let clients = || worlds.iter().flat_map(|w| w.clients.iter());
    let history = || worlds.iter().flat_map(|w| w.ctrl.engine.history().iter());
    let bits: f64 = clients()
        .map(|c| c.metrics.downlink.total() + c.metrics.uplink.total())
        .sum();
    let goodput_mbps = bits / sim_traffic_s / 1e6;
    let mut h = Fnv::new();
    h.u64(events);
    h.u64(goodput_mbps.to_bits());
    for c in clients() {
        let m = &c.metrics;
        h.u64(m.downlink.total().to_bits());
        h.u64(m.uplink.total().to_bits());
        for v in [m.mpdu_attempts, m.mpdu_successes, m.mpdu_retransmits] {
            h.u64(v);
        }
        for v in [m.accuracy_total, m.accuracy_optimal] {
            h.u64(v);
        }
        for &(t, ap) in &m.assoc_timeline {
            h.u64(t.as_nanos());
            h.u64(ap.map_or(0, |a| a.0 as u64 + 1));
        }
    }
    for r in history() {
        h.str(&format!("{r:?}"));
    }
    h.str(&format!("{sys:?}"));
    Outcome {
        fingerprint: h.0,
        events,
        goodput_mbps,
        mpdu_attempts: clients().map(|c| c.metrics.mpdu_attempts).sum(),
        mpdu_successes: clients().map(|c| c.metrics.mpdu_successes).sum(),
        switches: history().count() as u64,
        stop_retries: history().map(|r| r.retries as u64).sum(),
        uplink_copies: sys.uplink_copies,
        uplink_duplicates: sys.uplink_duplicates,
        takeovers: sys.standby_takeovers,
        ap_crashes: sys.ap_crashes,
        delivered_bytes: clients()
            .flat_map(|c| c.udp_sink.values())
            .map(|k| k.bytes())
            .sum(),
        migrations: 0,
        migration_retries: sys.migration_retries,
        migration_dups_dropped: sys.migration_dups_dropped,
        migration_aborts: sys.migration_aborts,
        seam_forwarded: sys.seam_forwarded,
        residue_transferred: sys.residue_transferred,
        departed_data_drops: sys.departed_data_drops,
        departed_data_bytes: sys.departed_data_bytes,
    }
}

fn sharded_outcome(r: &ShardedRunResult) -> Outcome {
    let worlds: Vec<&WgttWorld> = r.worlds.iter().collect();
    let mut o = outcome(&worlds, &r.sys, r.events, r.duration.as_secs_f64());
    let mut h = Fnv(o.fingerprint);
    h.str(&r.fingerprint());
    o.fingerprint = h.0;
    o.migrations = r.migrations.len() as u64;
    o
}

/// One timed run of the program, split into set-up and loop.
struct Rep {
    setup_s: f64,
    loop_s: f64,
    heap_bytes: u64,
    allocs: u64,
    outcome: Outcome,
}

/// One `wgtt_core::run`: set-up is the call's wall time outside the
/// engine's own loop timer.
fn single_rep(s: &Scenario) -> Rep {
    let input = s.clone();
    let base = alloc::reset_peak();
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let r = wgtt_core::run(input);
    let total = t0.elapsed().as_secs_f64();
    let allocs = alloc::calls() - a0;
    let heap_bytes = alloc::peak_since(base);
    Rep {
        setup_s: total - r.perf.wall_s,
        loop_s: r.perf.wall_s,
        heap_bytes,
        allocs,
        outcome: outcome(
            &[&r.world],
            &r.world.sys,
            r.events,
            r.duration.as_secs_f64(),
        ),
    }
}

/// One `run_sharded`: set-up is the call's wall time outside the lockstep
/// drive (so it also holds the few moves that assemble the result).
fn sharded_rep(s: &ShardedScenario, workers: usize) -> (Rep, ShardedRunResult) {
    let base = alloc::reset_peak();
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let r = run_sharded(s, workers);
    let total = t0.elapsed().as_secs_f64();
    let allocs = alloc::calls() - a0;
    let heap_bytes = alloc::peak_since(base);
    let rep = Rep {
        setup_s: total - r.wall.as_secs_f64(),
        loop_s: r.wall.as_secs_f64(),
        heap_bytes,
        allocs,
        outcome: sharded_outcome(&r),
    };
    (rep, r)
}

/// A traced run and its outcome.
struct TracedRep {
    run: trace::TracedRun,
    outcome: Outcome,
}

fn traced_rep(s: &Scenario) -> TracedRep {
    let run = trace::traced_run(s);
    let outcome = outcome(
        &[&run.world],
        &run.world.sys,
        run.events,
        s.duration.as_secs_f64(),
    );
    TracedRep { run, outcome }
}

/// Runs attempted and failed, plus each realization's first outcome that
/// every later run of the same input must reproduce.
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
    reference: Vec<Option<(u64, u64)>>,
}

impl Tally {
    /// Runs `f` on realization `k` as one attempt. A panic, a fingerprint
    /// or event count that differs from the realization's first run, or a
    /// failed workload check makes it a failed run: reported on stderr and
    /// returned as `None`.
    fn attempt<T>(
        &mut self,
        what: &str,
        k: usize,
        f: impl FnOnce() -> T,
        outcome: impl Fn(&T) -> &Outcome,
    ) -> Option<T> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(f)) {
            Err(p) => Err(format!(
                "panicked: {}",
                p.downcast_ref::<String>()
                    .map(String::as_str)
                    .or(p.downcast_ref::<&str>().copied())
                    .unwrap_or("?")
            )),
            Ok(t) => {
                let o = outcome(&t);
                let key = (o.fingerprint, o.events);
                let reference = *self.reference[k].get_or_insert(key);
                if key != reference {
                    Err(format!(
                        "fingerprint {:016x} over {} events differs from {:016x} over {}",
                        key.0, key.1, reference.0, reference.1
                    ))
                } else {
                    check(self.workload, o).map(|()| t)
                }
            }
        };
        match verdict {
            Ok(t) => Some(t),
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "FAILED {} {what} (realization {k}): {e}",
                    self.workload.name()
                );
                None
            }
        }
    }
}

/// The workload's own output checks.
fn check(w: Workload, o: &Outcome) -> Result<(), String> {
    match w {
        Workload::ConvoyUdp => {}
        Workload::CommuteTcpFaults => {
            if o.takeovers == 0 || o.ap_crashes == 0 {
                return Err(format!(
                    "faults skipped: {} standby takeovers, {} AP crashes",
                    o.takeovers, o.ap_crashes
                ));
            }
        }
        Workload::CorridorRing => {
            if o.departed_data_bytes != 0 || o.departed_data_drops != 0 || o.delivered_bytes == 0 {
                return Err(format!(
                    "retention below 1: {} bytes delivered, {} bytes in {} datagrams lost at seams",
                    o.delivered_bytes, o.departed_data_bytes, o.departed_data_drops
                ));
            }
        }
    }
    if o.goodput_mbps > 0.0 {
        Ok(())
    } else {
        Err("no goodput".into())
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// Calls `step` until `seconds` have passed and it ran at least
/// `min_steps` times.
fn for_seconds(seconds: Duration, min_steps: usize, mut step: impl FnMut()) {
    let deadline = Instant::now() + seconds;
    for n in 0.. {
        if n >= min_steps && Instant::now() >= deadline {
            break;
        }
        step();
    }
}

/// Untraced runs of the realizations in turn: each at least once and the
/// first twice, so that an input is seen to reproduce itself, then on
/// round-robin until `seconds` have passed.
///
/// - `sim_rate`: simulated seconds of all realizations over the sum of
///   their median loop wall times;
/// - `setup_s` and `heap_peak_mb`: medians over all runs;
/// - `goodput_mbps`: the mean over realizations (it is deterministic; across
///   realizations it is spread evenly, not heavy-tailed, so the mean
///   varies less from seed to seed than the median).
fn end_to_end(inputs: &[Input], seconds: Duration, tally: &mut Tally) -> Metrics {
    let mut reps: Vec<Vec<Rep>> = inputs.iter().map(|_| Vec::new()).collect();
    for (k, input) in inputs.iter().enumerate() {
        if let Input::Sharded(s) = input {
            // Worker-count invariance: the serial leg sets the reference
            // every lockstep run of this realization must reproduce.
            tally.attempt("1-worker leg", k, || sharded_rep(s, 1).0, |r| &r.outcome);
        }
    }
    let mut next = 0;
    for_seconds(seconds, inputs.len() + 1, || {
        let k = next % inputs.len();
        next += 1;
        let rep = match &inputs[k] {
            Input::Single(s) => tally.attempt("run", k, || single_rep(s), |r| &r.outcome),
            Input::Sharded(s) => tally.attempt(
                "run",
                k,
                || sharded_rep(s, CORRIDOR_WORKERS).0,
                |r| &r.outcome,
            ),
        };
        reps[k].extend(rep);
    });
    let all = || reps.iter().flatten();
    let sim_s: f64 = inputs.iter().map(Input::sim_s).sum();
    let wall_s: f64 = reps
        .iter()
        .map(|r| median(r.iter().map(|r| r.loop_s).collect()))
        .sum();
    let goodput: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.first())
        .map(|r| r.outcome.goodput_mbps)
        .collect();
    vec![
        ("sim_rate".into(), ratio(sim_s, wall_s), "sim_s/s"),
        (
            "setup_s".into(),
            median(all().map(|r| r.setup_s).collect()),
            "s",
        ),
        (
            "heap_peak_mb".into(),
            median(all().map(|r| r.heap_bytes as f64 / 1e6).collect()),
            "MB",
        ),
        (
            "goodput_mbps".into(),
            ratio(goodput.iter().sum(), goodput.len() as f64),
            "Mbit/s",
        ),
    ]
}

/// The counters and useful-work ratios every traced run reports.
fn counter_metrics(o: &Outcome) -> Metrics {
    let n = |v: u64| v as f64;
    vec![
        (
            "mac.mpdu_success_ratio".into(),
            ratio(n(o.mpdu_successes), n(o.mpdu_attempts)),
            "ratio",
        ),
        (
            "net.dataplane.uplink_dup_ratio".into(),
            ratio(n(o.uplink_duplicates), n(o.uplink_copies)),
            "ratio",
        ),
        ("core.switching.switches".into(), n(o.switches), "count"),
        (
            "core.switching.stop_retries".into(),
            n(o.stop_retries),
            "count",
        ),
        ("core.replica.takeovers".into(), n(o.takeovers), "count"),
        ("core.shard.migrations".into(), n(o.migrations), "count"),
        (
            "core.shard.migration_retries".into(),
            n(o.migration_retries),
            "count",
        ),
        (
            "core.shard.migration_dups_dropped".into(),
            n(o.migration_dups_dropped),
            "count",
        ),
        (
            "core.shard.migration_aborts".into(),
            n(o.migration_aborts),
            "count",
        ),
        (
            "core.shard.seam_forwarded".into(),
            n(o.seam_forwarded),
            "count",
        ),
        (
            "core.shard.residue_transferred".into(),
            n(o.residue_transferred),
            "count",
        ),
        (
            "core.shard.departed_data_drops".into(),
            n(o.departed_data_drops),
            "count",
        ),
    ]
}

/// Pushes one layer's four metrics.
fn layer(m: &mut Metrics, name: &str, busy_s: f64, events: f64, allocs: f64) {
    m.push((format!("{name}.busy_s"), busy_s, "s"));
    m.push((format!("{name}.events"), events, "count"));
    m.push((
        format!("{name}.ns_per_event"),
        ratio(busy_s * 1e9, events),
        "ns",
    ));
    m.push((format!("{name}.allocs"), allocs, "count"));
}

/// Busy seconds, events and allocation calls of one layer.
type LayerFigures = (f64, f64, f64);

/// Pushes the layer table: four metrics per layer, only the event count
/// for `other` (its job is to show that the `Ev` table is stale), then
/// `sim.engine`, the loop's time and allocations no handler accounts for.
fn layer_table(m: &mut Metrics, layers: [LayerFigures; LAYERS.len()], engine: LayerFigures) {
    for (name, (busy_s, events, allocs)) in LAYERS.into_iter().zip(layers) {
        if name == "other" {
            m.push(("other.events".into(), events, "count"));
        } else {
            layer(m, name, busy_s, events, allocs);
        }
    }
    let (busy_s, events, allocs) = engine;
    layer(m, "sim.engine", busy_s, events, allocs);
}

/// The per-layer figures that sit outside the layer table.
struct Extras {
    events_per_s: f64,
    allocs_per_event: f64,
    kernel_ns: (f64, f64),
    parallel_efficiency: f64,
    overhead: f64,
}

/// Appends everything after the layer table, in report order.
fn finish(mut m: Metrics, x: Extras, o: &Outcome) -> Metrics {
    m.push(("sim.engine.events_per_s".into(), x.events_per_s, "1/s"));
    m.push(("sim.allocs_per_event".into(), x.allocs_per_event, "ratio"));
    m.push(("phy.csi_ns".into(), x.kernel_ns.0, "ns"));
    m.push(("phy.capacity_ns".into(), x.kernel_ns.1, "ns"));
    m.push((
        "sim.lockstep.parallel_efficiency".into(),
        x.parallel_efficiency,
        "ratio",
    ));
    m.extend(counter_metrics(o));
    m.push(("trace.overhead_ratio".into(), x.overhead, "ratio"));
    m
}

/// The per-layer split, on the seed's first realization.
fn per_layer(input: &Input, seconds: Duration, tally: &mut Tally) -> Metrics {
    match input {
        Input::Single(s) => per_layer_single(s, seconds, tally),
        Input::Sharded(s) => per_layer_sharded(s, seconds, tally),
    }
}

/// Alternates untraced and traced runs; the layer table holds medians
/// over the traced ones.
fn per_layer_single(s: &Scenario, seconds: Duration, tally: &mut Tally) -> Metrics {
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    for_seconds(seconds, 1, || {
        untraced.extend(tally.attempt("run", 0, || single_rep(s), |r| &r.outcome));
        traced.extend(tally.attempt("traced run", 0, || traced_rep(s), |r| &r.outcome));
    });
    let mut m = Metrics::new();
    let Some(first) = traced.first() else {
        return m;
    };
    let events = first.run.events as f64;
    let of = |f: &dyn Fn(&TracedRep) -> f64| median(traced.iter().map(f).collect());
    let handler_s = |t: &TracedRep| {
        t.run
            .layers
            .iter()
            .map(|l| l.busy.as_secs_f64())
            .sum::<f64>()
    };
    let handler_allocs = |t: &TracedRep| t.run.layers.iter().map(|l| l.allocs).sum::<u64>();
    let layers = std::array::from_fn(|l| {
        (
            of(&|t| t.run.layers[l].busy.as_secs_f64()),
            first.run.layers[l].events as f64,
            of(&|t| t.run.layers[l].allocs as f64),
        )
    });
    let engine = (
        of(&|t| t.run.wall.as_secs_f64() - handler_s(t)),
        events,
        of(&|t| (t.run.allocs - handler_allocs(t)) as f64),
    );
    layer_table(&mut m, layers, engine);
    let untraced_s = median(untraced.iter().map(|r| r.loop_s).collect());
    let extras = Extras {
        events_per_s: ratio(events, untraced_s),
        allocs_per_event: ratio(first.run.allocs as f64, events),
        kernel_ns: trace::kernel_ns(&trace::build_world(s)),
        parallel_efficiency: 0.0,
        overhead: ratio(of(&|t| t.run.wall.as_secs_f64()), untraced_s),
    };
    finish(m, extras, &first.outcome)
}

/// Alternates the 1-worker and 2-worker legs. The shards' simulators are
/// built inside `run_sharded`, out of a wrapper's reach, so no handler is
/// observed: every layer reads 0 and `sim.engine` holds the whole 1-worker
/// loop, with the allocations of the whole call (see README.md).
fn per_layer_sharded(s: &ShardedScenario, seconds: Duration, tally: &mut Tally) -> Metrics {
    let mut serial: Vec<(Rep, ShardedRunResult)> = Vec::new();
    let mut parallel: Vec<Rep> = Vec::new();
    for_seconds(seconds, 1, || {
        serial.extend(tally.attempt("1-worker leg", 0, || sharded_rep(s, 1), |r| &r.0.outcome));
        parallel.extend(tally.attempt(
            "run",
            0,
            || sharded_rep(s, CORRIDOR_WORKERS).0,
            |r| &r.outcome,
        ));
    });
    let mut m = Metrics::new();
    let Some((first, result)) = serial.first() else {
        return m;
    };
    let events = first.outcome.events as f64;
    let allocs = first.allocs as f64;
    let w1 = median(serial.iter().map(|r| r.0.loop_s).collect());
    let w2 = median(parallel.iter().map(|r| r.loop_s).collect());
    layer_table(&mut m, Default::default(), (w1, events, allocs));
    let extras = Extras {
        events_per_s: ratio(events, w1),
        allocs_per_event: ratio(allocs, events),
        kernel_ns: trace::kernel_ns(&result.worlds[0]),
        parallel_efficiency: ratio(w1, CORRIDOR_WORKERS as f64 * w2),
        overhead: 0.0,
    };
    finish(m, extras, &first.outcome)
}

/// `value` as a JSON number: every digit Rust's shortest round-trip
/// formatting gives, and 0 for a value JSON cannot hold.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = args.workload.inputs(args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let mut tally = Tally {
        workload: args.workload,
        attempted: 0,
        failed: 0,
        reference: vec![None; inputs.len()],
    };
    let metrics = if args.trace {
        per_layer(&inputs[0], seconds, &mut tally)
    } else {
        end_to_end(&inputs, seconds, &mut tally)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} seed={} trace={} cores={cores}: {} runs attempted, {} failed",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        tally.attempted,
        tally.failed,
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = tally.failed == 0 && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
