//! `ccdp` — the ops CLI of the networked serving stack.
//!
//! Thin subcommands over the typed [`NetClient`]: each command parses its
//! `KEY=VALUE` arguments, connects its own client and formats output, and
//! every failure is a typed [`CliError`] with a distinct exit code — never a
//! panic, never a stringly-typed guess.
//!
//! ```text
//! ccdp serve    [addr=127.0.0.1:8787] [fleet=smoke|empty] [workers=4]
//!               [queue=256] [seed=0] [max_connections=64] [duration_s=0]
//!               [tracing=on|off]
//! ccdp estimate [addr=..] tenant=alpha graph=fleet/g0 epsilon=0.25 [version=3]
//! ccdp ingest   [addr=..] graph=g (file=edges.txt | edges='0 1\n1 2') [version=0]
//! ccdp health   [addr=..]
//! ccdp top      [addr=..]
//! ccdp trace    [addr=..] id=<hex trace id>
//! ccdp audit    [addr=..] tenant=alpha [events=20]
//! ```
//!
//! `serve fleet=smoke` provisions a small fixed fleet (`fleet/g0`…`fleet/g7`,
//! tenants `alpha`, `beta`, `gamma` and `burst`) so the other commands have
//! something to address. Load is driven by the `perfbench/` benchmark, not by
//! this CLI.

#![forbid(unsafe_code)]

use ccdp::graph::generators;
use ccdp::net::client::resolve;
use ccdp::net::{NetClient, NetConfig, NetError, NetServer};
use ccdp::prelude::{SeedableRng, StdRng};
use ccdp::serve::{BudgetLedger, GraphRegistry, ServeConfig, Server};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The default address `serve` binds and the clients target.
const DEFAULT_ADDR: &str = "127.0.0.1:8787";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Done) => ExitCode::SUCCESS,
        Ok(Outcome::Degraded) => ExitCode::from(2),
        Err(e) => {
            eprintln!("ccdp: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: ccdp <serve|estimate|ingest|health|top|trace|audit> [KEY=VALUE]...\n\
  serve     start a listener (fleet=smoke provisions the smoke fleet;\n\
            tracing=on records per-request span traces)\n\
  estimate  one private release: tenant= graph= epsilon= [version=]\n\
  ingest    publish an edge list: graph= file=|edges= [version=]\n\
  health    readiness probe (exit 0 ready, 2 degraded)\n\
  top       scrape /metrics and print the fleet dashboard (headline\n\
            counters, catalog sizes, throughput and the solver phase table)\n\
  trace     render one request's span tree: id=<hex, from X-Ccdp-Trace>\n\
  audit     print a tenant's budget audit trail and the replay verdict:\n\
            tenant= [events=20 caps the event tail]\n\
  common    addr=127.0.0.1:8787";

/// How a successful command ended (drives the exit code).
enum Outcome {
    /// All good: exit 0.
    Done,
    /// `health` answered but not ready: exit 2, distinguishable from a
    /// transport failure (exit 1) by probes.
    Degraded,
}

fn run(args: &[String]) -> Result<Outcome, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("no command given".into()))?;
    match command.as_str() {
        "serve" => cmd_serve(Args::parse(
            rest,
            &[
                "addr",
                "fleet",
                "workers",
                "queue",
                "seed",
                "max_connections",
                "duration_s",
                "tracing",
            ],
        )?),
        "estimate" => cmd_estimate(Args::parse(
            rest,
            &["addr", "tenant", "graph", "epsilon", "version"],
        )?),
        "ingest" => cmd_ingest(Args::parse(
            rest,
            &["addr", "graph", "file", "edges", "version"],
        )?),
        "health" => cmd_health(Args::parse(rest, &["addr"])?),
        "top" => cmd_top(Args::parse(rest, &["addr"])?),
        "trace" => cmd_trace(Args::parse(rest, &["addr", "id"])?),
        "audit" => cmd_audit(Args::parse(rest, &["addr", "tenant", "events"])?),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Commands: parse keys, call the server, format output.
// ---------------------------------------------------------------------------

fn cmd_serve(args: Args) -> Result<Outcome, CliError> {
    let addr = args.str_or("addr", DEFAULT_ADDR);
    let fleet = args.str_or("fleet", "smoke");
    let duration_s = args.u64_or("duration_s", 0)?;

    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    match fleet {
        "smoke" => {
            provision_smoke_fleet(&registry, &ledger);
            println!(
                "provisioned smoke fleet: {} graphs, {} tenants",
                registry.len(),
                ledger.tenants().len()
            );
        }
        "empty" => {}
        other => {
            return Err(CliError::BadArg {
                key: "fleet",
                detail: format!("`{other}` is not one of smoke|empty"),
            })
        }
    }

    let config = ServeConfig::new()
        .with_workers(args.u64_or("workers", 4)? as usize)
        .with_queue_capacity(args.u64_or("queue", 256)? as usize)
        .with_seed(args.u64_or("seed", 0)?)
        .with_tracing(args.toggle_opt("tracing")?.unwrap_or(false));
    let server = Arc::new(Server::start(config, registry, ledger));
    let net_config = NetConfig::new()
        .with_addr(addr)
        .with_max_connections(args.u64_or("max_connections", 64)? as usize);
    let net = NetServer::start(net_config, Arc::clone(&server)).map_err(|e| CliError::Io {
        detail: format!("cannot bind `{addr}`: {e}"),
    })?;
    println!("serving on {} (fleet={fleet})", net.local_addr());

    if duration_s > 0 {
        std::thread::sleep(Duration::from_secs(duration_s));
        net.shutdown();
        let metrics = server.metrics().snapshot();
        let count = |name: &str| metrics.value(name).unwrap_or(0.0);
        println!(
            "drained after {duration_s}s: {} connections, {} requests",
            count("ccdp_net_connections_accepted_total"),
            count("ccdp_net_requests_total")
        );
    } else {
        // Serve until the process is killed; the listener threads do the work.
        loop {
            std::thread::park();
        }
    }
    Ok(Outcome::Done)
}

/// Builds the smoke fleet into `registry` and its tenants into `ledger`:
/// eight small ER, star and path graphs as `fleet/g0`…`fleet/g7`, three
/// well-funded tenants and one (`burst`) that runs dry after 16 releases at
/// ε = 0.25.
fn provision_smoke_fleet(registry: &GraphRegistry, ledger: &BudgetLedger) {
    // `G(n, p)` with `p = avg_degree / n`, seeded per graph.
    let er = |n: usize, avg_degree: f64, seed: u64| {
        generators::erdos_renyi(n, avg_degree / n as f64, &mut StdRng::seed_from_u64(seed))
    };
    let graphs = [
        er(60, 3.0, 11),
        er(80, 2.0, 12),
        er(50, 4.0, 13),
        generators::star(40),
        generators::star(25),
        generators::path(64),
        generators::path(32),
        er(40, 1.5, 14),
    ];
    let tenants = [
        ("alpha", 80.0),
        ("beta", 80.0),
        ("gamma", 80.0),
        ("burst", 4.0),
    ];
    for (i, graph) in graphs.into_iter().enumerate() {
        registry.insert(format!("fleet/g{i}"), graph);
    }
    for (name, quota) in tenants {
        ledger
            .register(name, quota)
            .expect("a fresh ledger has no tenants yet");
    }
}

fn cmd_estimate(args: Args) -> Result<Outcome, CliError> {
    let mut client = NetClient::connect(resolve(args.str_or("addr", DEFAULT_ADDR))?);
    let est = client.estimate(
        args.require("tenant")?,
        args.require("graph")?,
        args.f64_req("epsilon")?,
        args.u64_opt("version")?,
    )?;
    println!(
        "{} on {}@v{}: {:.3}  (ε={}, estimator={}, server latency {:.2} ms)",
        est.tenant,
        est.graph,
        est.version.map_or_else(|| "?".into(), |v| v.to_string()),
        est.value,
        est.epsilon.map_or_else(|| "-".into(), |e| e.to_string()),
        est.estimator,
        est.latency_ms,
    );
    if let Some(trace) = &est.trace {
        println!("trace: {trace}  (ccdp trace id={trace})");
    }
    Ok(Outcome::Done)
}

fn cmd_ingest(args: Args) -> Result<Outcome, CliError> {
    let edges = match (args.opt("file"), args.opt("edges")) {
        (Some(path), None) => std::fs::read_to_string(path).map_err(|e| CliError::Io {
            detail: format!("cannot read `{path}`: {e}"),
        })?,
        (None, Some(inline)) => inline.replace("\\n", "\n"),
        _ => {
            return Err(CliError::Usage(
                "ingest needs exactly one of file= or edges=".into(),
            ))
        }
    };
    let mut client = NetClient::connect(resolve(args.str_or("addr", DEFAULT_ADDR))?);
    let resp = client.ingest(args.require("graph")?, &edges, args.u64_opt("version")?)?;
    println!(
        "published {}@v{}: {} vertices, {} edges",
        resp.graph, resp.version, resp.vertices, resp.edges
    );
    Ok(Outcome::Done)
}

fn cmd_health(args: Args) -> Result<Outcome, CliError> {
    let mut client = NetClient::connect(resolve(args.str_or("addr", DEFAULT_ADDR))?);
    let health = client.health()?;
    println!(
        "{} (ready={}, accepting={}, draining={}, graphs={})",
        health.status, health.ready, health.accepting, health.draining, health.graphs
    );
    Ok(if health.ready {
        Outcome::Done
    } else {
        Outcome::Degraded
    })
}

fn cmd_top(args: Args) -> Result<Outcome, CliError> {
    let addr = args.str_or("addr", DEFAULT_ADDR);
    let mut client = NetClient::connect(resolve(addr)?);
    let series = ccdp::obs::parse_exposition(&client.metrics()?);
    // A series name in the exposition may carry labels (`name{k="v"}`);
    // headline numbers sum across them.
    let sum = |name: &str| -> f64 {
        series
            .iter()
            .filter(|(n, _)| n == name || (n.starts_with(name) && n[name.len()..].starts_with('{')))
            .map(|(_, v)| v)
            .sum()
    };
    println!("== ccdp top @ {addr} ==");
    let completed = sum("ccdp_serve_completed_total");
    let uptime = sum("ccdp_serve_uptime_seconds");
    println!(
        "serve    requests={:.0} completed={completed:.0} failed={:.0} budget_refusals={:.0} queue_depth={:.0} (peak {:.0}) throughput={:.1}/s",
        sum("ccdp_serve_requests_total"),
        sum("ccdp_serve_failed_total"),
        sum("ccdp_serve_budget_refusals_total"),
        sum("ccdp_serve_queue_depth"),
        sum("ccdp_serve_queue_depth_peak"),
        if uptime > 0.0 { completed / uptime } else { 0.0 },
    );
    println!(
        "catalog  graphs={:.0} versions={:.0} tenants={:.0}",
        sum("ccdp_serve_catalog_graphs"),
        sum("ccdp_serve_catalog_versions"),
        sum("ccdp_serve_tenants"),
    );
    let hits = sum("ccdp_core_cache_hits_total");
    let misses = sum("ccdp_core_cache_misses_total");
    let lookups = hits + misses + sum("ccdp_core_cache_coalesced_total");
    println!(
        "cache    hits={hits:.0} misses={misses:.0} coalesced={:.0} entries={:.0} (hit ratio {:.0}%)",
        sum("ccdp_core_cache_coalesced_total"),
        sum("ccdp_core_cache_entries"),
        if lookups > 0.0 { 100.0 * (lookups - misses) / lookups } else { 0.0 },
    );
    println!(
        "budget   charges={:.0} refusals={:.0} epsilon_spent={:.4}",
        sum("ccdp_dp_budget_charges_total"),
        sum("ccdp_dp_budget_refusals_total"),
        sum("ccdp_dp_budget_epsilon_spent_total"),
    );
    println!(
        "net      requests={:.0} 2xx={:.0} 4xx={:.0} 5xx={:.0} refused_cap={:.0}",
        sum("ccdp_net_requests_total"),
        sum("ccdp_net_responses_ok_total"),
        sum("ccdp_net_responses_client_error_total"),
        sum("ccdp_net_responses_server_error_total"),
        sum("ccdp_net_connections_refused_cap_total"),
    );
    let releases = sum("ccdp_stream_releases_total");
    if releases > 0.0 {
        println!("stream   releases={releases:.0}");
    }

    // The solver phase table: seconds and invocations per `phase` label,
    // hottest first.
    let mut phases: Vec<(String, f64, f64)> = Vec::new();
    for (name, seconds) in &series {
        let Some(label) = name
            .strip_prefix("ccdp_exec_phase_seconds_total{phase=\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
        else {
            continue;
        };
        let invocations = sum(&format!(
            "ccdp_exec_phase_invocations_total{{phase=\"{label}\"}}"
        ));
        phases.push((label.to_string(), *seconds, invocations));
    }
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !phases.is_empty() {
        println!("phases   (seconds, invocations):");
        for (name, seconds, invocations) in &phases {
            println!("  {name:<28} {seconds:>10.4} s {invocations:>8.0}");
        }
    }
    Ok(Outcome::Done)
}

fn cmd_trace(args: Args) -> Result<Outcome, CliError> {
    let id = args.require("id")?;
    let mut client = NetClient::connect(resolve(args.str_or("addr", DEFAULT_ADDR))?);
    let tree = client.trace(id)?;
    let total_ms = tree
        .get("total_nanos")
        .and_then(ccdp::serve::json::JsonValue::as_f64)
        .unwrap_or(0.0)
        / 1e6;
    println!("trace {id}  ({total_ms:.3} ms end to end)");
    fn render(span: &ccdp::serve::json::JsonValue, depth: usize) {
        use ccdp::serve::json::JsonValue;
        let name = span.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let ms = span
            .get("duration_nanos")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            / 1e6;
        let detail = span
            .get("detail")
            .and_then(JsonValue::as_str)
            .map(|d| format!("  [{d}]"))
            .unwrap_or_default();
        let indent = "  ".repeat(depth + 1);
        if ms > 0.0 {
            println!("{indent}{name:<30} {ms:>9.3} ms{detail}");
        } else {
            println!("{indent}{name}{detail}");
        }
        if let Some(JsonValue::Array(children)) = span.get("children") {
            for child in children {
                render(child, depth + 1);
            }
        }
    }
    if let Some(ccdp::serve::json::JsonValue::Array(spans)) = tree.get("spans") {
        for span in spans {
            render(span, 0);
        }
    }
    Ok(Outcome::Done)
}

fn cmd_audit(args: Args) -> Result<Outcome, CliError> {
    use ccdp::serve::json::JsonValue;
    let tenant = args.require("tenant")?;
    let tail = args.u64_or("events", 20)? as usize;
    let mut client = NetClient::connect(resolve(args.str_or("addr", DEFAULT_ADDR))?);
    let audit = client.audit(tenant)?;

    let f = |node: Option<&JsonValue>, key: &str| {
        node.and_then(|n| n.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let account = audit.get("account");
    let replay = audit.get("replay");
    println!(
        "tenant {tenant}: spent {:.4} of {:.4} ε ({:.1}% utilized), {} charges, {} refusals",
        f(account, "spent_epsilon"),
        f(account, "quota_epsilon"),
        100.0 * f(account, "utilization"),
        f(account, "charges") as u64,
        f(account, "refusals") as u64,
    );
    let matches = replay
        .and_then(|r| r.get("matches"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let complete = replay
        .and_then(|r| r.get("complete"))
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    println!(
        "replay: spent {:.4} ε over {} charges, {} refusals — {}",
        f(replay, "spent_epsilon"),
        f(replay, "charges") as u64,
        f(replay, "refusals") as u64,
        if matches {
            "matches the live ledger"
        } else if !complete {
            "journal incomplete (ring wrapped); not verifiable"
        } else {
            "MISMATCH vs the live ledger"
        },
    );

    let events = match audit.get("events") {
        Some(JsonValue::Array(events)) => events.as_slice(),
        _ => &[],
    };
    let shown = events.len().min(tail);
    println!("events ({} total, last {shown}):", events.len());
    for event in &events[events.len() - shown..] {
        let get = |key: &str| event.get(key).and_then(JsonValue::as_str).unwrap_or("");
        let seq = event.get("seq").and_then(JsonValue::as_u64).unwrap_or(0);
        let granted = event
            .get("epsilon_granted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let mut line = format!("  #{seq:<6} {:<18}", get("kind"));
        if !get("graph").is_empty() {
            let version = event
                .get("version")
                .and_then(JsonValue::as_u64)
                .map_or_else(String::new, |v| format!("@v{v}"));
            line.push_str(&format!(" {}{version}", get("graph")));
        }
        if granted != 0.0 {
            line.push_str(&format!(" ε={granted}"));
        }
        if !get("detail").is_empty() {
            line.push_str(&format!("  [{}]", get("detail")));
        }
        println!("{line}");
    }
    Ok(Outcome::Done)
}

// ---------------------------------------------------------------------------
// KEY=VALUE argument parsing with typed errors.
// ---------------------------------------------------------------------------

/// Parsed `KEY=VALUE` arguments, validated against the command's key set.
struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String], allowed: &[&str]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        for arg in raw {
            let (key, value) = arg
                .split_once('=')
                .ok_or_else(|| CliError::Usage(format!("`{arg}` is not KEY=VALUE")))?;
            if !allowed.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown key `{key}` (allowed: {})",
                    allowed.join(", ")
                )));
            }
            if values.insert(key.to_string(), value.to_string()).is_some() {
                return Err(CliError::Usage(format!("`{key}` given twice")));
            }
        }
        Ok(Args { values })
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.opt(key).unwrap_or(default)
    }

    fn require(&self, key: &'static str) -> Result<&str, CliError> {
        self.opt(key).ok_or(CliError::Missing { key })
    }

    fn u64_opt(&self, key: &'static str) -> Result<Option<u64>, CliError> {
        self.opt(key)
            .map(|v| {
                v.parse().map_err(|_| CliError::BadArg {
                    key,
                    detail: format!("`{v}` is not a non-negative integer"),
                })
            })
            .transpose()
    }

    fn u64_or(&self, key: &'static str, default: u64) -> Result<u64, CliError> {
        Ok(self.u64_opt(key)?.unwrap_or(default))
    }

    fn f64_req(&self, key: &'static str) -> Result<f64, CliError> {
        let v = self.require(key)?;
        v.parse().map_err(|_| CliError::BadArg {
            key,
            detail: format!("`{v}` is not a number"),
        })
    }

    /// `on|off` (also `true|false`, `1|0`) toggles; `None` when absent.
    fn toggle_opt(&self, key: &'static str) -> Result<Option<bool>, CliError> {
        match self.opt(key) {
            None => Ok(None),
            Some("on") | Some("true") | Some("1") => Ok(Some(true)),
            Some("off") | Some("false") | Some("0") => Ok(Some(false)),
            Some(v) => Err(CliError::BadArg {
                key,
                detail: format!("`{v}` is not on|off"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The typed failure surface of the CLI.
// ---------------------------------------------------------------------------

/// Everything that can go wrong, each with a readable message (and the
/// server's stable error code passed through on API refusals).
#[derive(Debug)]
enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// A required key is missing.
    Missing { key: &'static str },
    /// A key has an unusable value.
    BadArg { key: &'static str, detail: String },
    /// A local I/O failure (file read, bind).
    Io { detail: String },
    /// The wire tier failed or the server refused (typed pass-through).
    Net(NetError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Missing { key } => write!(f, "missing required `{key}=`"),
            CliError::BadArg { key, detail } => write!(f, "bad `{key}=`: {detail}"),
            CliError::Io { detail } => write!(f, "{detail}"),
            CliError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<NetError> for CliError {
    fn from(e: NetError) -> Self {
        CliError::Net(e)
    }
}
