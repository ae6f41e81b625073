//! Live-introspection CLI for a running `locble-net` server.
//!
//! ```text
//! obsctl metrics --addr <host:port>          scrape and render MetricsReport
//! obsctl traces  --addr <host:port> [--id <n>]   render recent trace records
//! obsctl cluster --addr <host:port>          render a node's ClusterReport
//! obsctl smoke   [--json <path>] [--dump <path>] end-to-end self-check
//! ```
//!
//! `metrics` and `traces` speak the introspection frames (DESIGN.md
//! §13) to any live server. `smoke` boots its own loopback server and
//! drives the whole telemetry surface: traced ingest, per-stage lap
//! attribution for a single batch, metrics scrape with non-zero serve
//! histograms, a forced decode-storm flight dump that must parse back,
//! and the instrumented-vs-noop overhead measurement (written as
//! `BENCH_obs.json` when `--json` is given). Every check, the 3%
//! overhead gate included, is judged here: `smoke` exits non-zero on
//! any failed check and prints `obs smoke: PASS` on success. The
//! artifact's throughputs are a record of the run, not compared with
//! anything.

use locble_ble::BeaconId;
use locble_core::{Estimator, EstimatorConfig};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_net::{Client, Frame, Server, ServerConfig, WireAdvert, WireMetrics};
use locble_obs::{trace_id, HistogramSnapshot, Obs, Stage, TraceCtx, TraceRecord};
use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        usage(2);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "metrics" => {
            let addr = take_value(&mut args, "--addr").unwrap_or_else(|| usage(2));
            reject_extra(&args);
            let mut client = connect(&addr);
            let metrics = client
                .metrics()
                .unwrap_or_else(|e| fail(&format!("metrics query: {e}")));
            print!("{}", render_metrics(&metrics));
        }
        "traces" => {
            let addr = take_value(&mut args, "--addr").unwrap_or_else(|| usage(2));
            let id = take_value(&mut args, "--id").map(|v| parse_u64(&v));
            reject_extra(&args);
            let mut client = connect(&addr);
            let records = client
                .traces(id)
                .unwrap_or_else(|e| fail(&format!("trace query: {e}")));
            print!("{}", render_traces(&records));
        }
        "cluster" => {
            let addr = take_value(&mut args, "--addr").unwrap_or_else(|| usage(2));
            reject_extra(&args);
            let mut client = connect(&addr);
            let report = client
                .cluster()
                .unwrap_or_else(|e| fail(&format!("cluster query: {e}")));
            print!("{}", render_cluster(&report));
        }
        "smoke" => {
            let json = take_value(&mut args, "--json").map(PathBuf::from);
            let dump = take_value(&mut args, "--dump").map(PathBuf::from);
            reject_extra(&args);
            smoke(json, dump);
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage(2);
        }
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: obsctl metrics --addr <host:port>\n       obsctl traces  --addr <host:port> [--id <n>]\n       obsctl cluster --addr <host:port>\n       obsctl smoke   [--json <path>] [--dump <path>]"
    );
    std::process::exit(code);
}

/// Renders a node's cluster identity: role, membership view, and the
/// cluster-path counters (standalone servers answer too, with node id
/// 0 and an empty map).
fn render_cluster(report: &locble_net::ClusterSummary) -> String {
    let mut out = String::new();
    out.push_str("== cluster ==\n");
    out.push_str(&format!("node id            {}\n", report.node_id));
    out.push_str(&format!("role               {}\n", report.role.name()));
    out.push_str(&format!("map epoch          {}\n", report.map.epoch));
    for entry in &report.map.nodes {
        out.push_str(&format!("  node {:<4} at {}\n", entry.node_id, entry.addr));
    }
    out.push_str(&format!("owned sessions     {}\n", report.owned_sessions));
    out.push_str(&format!(
        "forwarded batches  {}\n",
        report.forwarded_batches
    ));
    out.push_str(&format!(
        "forwarded adverts  {}\n",
        report.forwarded_adverts
    ));
    out.push_str(&format!(
        "replicated records {}\n",
        report.replicated_records
    ));
    out
}

fn fail(message: &str) -> ! {
    eprintln!("obsctl: {message}");
    std::process::exit(1);
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| fail(&format!("connect to {addr}: {e}")))
}

fn parse_u64(v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse::<u64>(),
    };
    parsed.unwrap_or_else(|_| fail(&format!("--id requires an integer, got {v:?}")))
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        fail(&format!("{flag} requires a value"));
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

fn reject_extra(args: &[String]) {
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        usage(2);
    }
}

/// Renders a scraped metrics report: counters, gauges, then histograms
/// with count/mean/quantiles (bucket-resolution).
fn render_metrics(metrics: &WireMetrics) -> String {
    let mut out = String::new();
    out.push_str("== metrics ==\n");
    if !metrics.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &metrics.counters {
            out.push_str(&format!("  {name:<34} {value}\n"));
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &metrics.gauges {
            out.push_str(&format!("  {name:<34} {value:.3}\n"));
        }
    }
    if !metrics.histograms.is_empty() {
        out.push_str("histograms (count / mean / p50 / p99 / max):\n");
        for (name, hist) in &metrics.histograms {
            out.push_str(&format!("  {name:<34} {}\n", render_histogram(hist)));
        }
    }
    out
}

fn render_histogram(h: &HistogramSnapshot) -> String {
    if h.count == 0 {
        return "empty".to_string();
    }
    format!(
        "{} / {:.1} / {:.0} / {:.0} / {:.0}",
        h.count,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max
    )
}

/// Renders trace records: one line per trace (path + total), one
/// indented line per lap.
fn render_traces(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== traces ({}) ==\n", records.len()));
    for record in records {
        out.push_str(&format!(
            "trace {:#018x}  path [{}]  total {} us\n",
            record.ctx.trace_id,
            record.ctx.stages().join(" -> "),
            record.total_us()
        ));
        for lap in &record.laps {
            out.push_str(&format!(
                "  {:<12} start {:>12} us  duration {:>8} us\n",
                lap.stage.name(),
                lap.start_us,
                lap.duration_us
            ));
        }
    }
    out
}

/// A check that must hold for the smoke run to pass.
fn check(ok: bool, what: &str) {
    if ok {
        println!("  ok: {what}");
    } else {
        fail(&format!("smoke check failed: {what}"));
    }
}

fn smoke(json: Option<PathBuf>, dump: Option<PathBuf>) {
    let dump = dump.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("locble-obsctl-dump-{}.jsonl", std::process::id()))
    });
    let _ = std::fs::remove_file(&dump);

    // A recording loopback server with the decode-storm dump armed.
    let obs = Obs::ring(8192);
    let config = ServerConfig {
        flight_dump_path: Some(dump.clone()),
        decode_storm_threshold: 5,
        ..ServerConfig::default()
    };
    let engine = Engine::new(
        EngineConfig::default(),
        Estimator::new(EstimatorConfig::default()),
        obs.clone(),
    );
    let server = Server::bind(engine, config, obs).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    println!("obs smoke: loopback server at {}", server.addr());
    let mut client = connect(&server.addr().to_string());

    // Traced traffic: 8 batches, one followable end to end.
    let adverts: Vec<Advert> = (0..400)
        .map(|i| Advert {
            beacon: BeaconId((i % 7) as u32),
            t: i as f64 * 0.1,
            rssi_dbm: -60.0,
        })
        .collect();
    let mut followed = 0u64;
    for (batch, chunk) in adverts.chunks(50).enumerate() {
        let id = trace_id(0x0B5C71, batch as u64);
        let wire = chunk.iter().map(|a| WireAdvert::from(*a)).collect();
        let (summary, _) = client
            .forward(batch as u64, TraceCtx::mint(id), wire)
            .unwrap_or_else(|e| fail(&format!("traced ingest: {e}")));
        check(
            summary.consumed == chunk.len() as u64,
            "batch fully consumed",
        );
        followed = id;
    }

    // One batch, attributable per stage, ack lap included.
    let records = client
        .traces(Some(followed))
        .unwrap_or_else(|e| fail(&format!("trace query: {e}")));
    check(
        records.len() == 1,
        "followed batch has exactly one trace record",
    );
    let record = &records[0];
    print!("{}", render_traces(&records));
    for stage in [
        Stage::Decode,
        Stage::Route,
        Stage::ShardQueue,
        Stage::Refit,
        Stage::Ack,
    ] {
        check(
            record.lap(stage).is_some(),
            &format!("trace carries a {} lap", stage.name()),
        );
    }

    // Metrics scrape: the per-stage serve histograms observed laps.
    let metrics = client
        .metrics()
        .unwrap_or_else(|e| fail(&format!("metrics query: {e}")));
    print!("{}", render_metrics(&metrics));
    let snapshot = metrics.to_snapshot();
    for stage in [
        Stage::Decode,
        Stage::Route,
        Stage::ShardQueue,
        Stage::Refit,
        Stage::Ack,
    ] {
        let count = snapshot
            .histograms
            .get(stage.histogram_name())
            .map_or(0, |h| h.count);
        check(
            count > 0,
            &format!("{} histogram is non-zero", stage.histogram_name()),
        );
    }
    check(
        snapshot.counter("net.frames_rx") > 0,
        "frame counters are live",
    );

    // Decode storm: framed-but-bad tags until the threshold dump fires.
    let mut bad = locble_net::encode_frame(&Frame::QueryStats);
    bad[5] = 250;
    for _ in 0..5 {
        client
            .send_raw(&bad)
            .unwrap_or_else(|e| fail(&format!("send bad frame: {e}")));
        match client.read_frame() {
            Ok(Frame::Error(_)) => {}
            Ok(other) => fail(&format!("expected an error reply, got {other:?}")),
            Err(e) => fail(&format!("read error reply: {e}")),
        }
    }
    let text = std::fs::read_to_string(&dump).unwrap_or_else(|e| {
        fail(&format!(
            "flight dump not written to {}: {e}",
            dump.display()
        ))
    });
    let events = locble_obs::events_from_jsonl(&text)
        .unwrap_or_else(|e| fail(&format!("flight dump does not parse: {e}")));
    check(!events.is_empty(), "flight dump has events");
    check(
        events.iter().any(|e| e.name == "flight_dump"),
        "flight dump records its own trigger",
    );
    println!(
        "  flight dump: {} events at {}",
        events.len(),
        dump.display()
    );
    let _ = std::fs::remove_file(&dump);

    drop(client);
    server.shutdown();

    // Overhead measurement + artifact + gate.
    println!("obs smoke: measuring instrumented-vs-noop overhead (best of 5)");
    let body = locble_bench::experiments::obs::json_report();
    let value = serde::json::parse(&body)
        .unwrap_or_else(|e| fail(&format!("overhead artifact does not parse: {e}")));
    if let Some(path) = &json {
        std::fs::write(path, &body)
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
        println!("  wrote {}", path.display());
    }
    let pct = match value.get("instrumented_overhead_pct") {
        Some(serde::Value::F64(p)) => *p,
        _ => fail("overhead artifact lacks instrumented_overhead_pct"),
    };
    println!("  instrumented overhead: {pct:+.2}%");
    check(
        matches!(
            value.get("overhead_within_gate"),
            Some(serde::Value::Bool(true))
        ),
        "instrumented overhead within 3% of noop",
    );

    println!("obs smoke: PASS");
}
