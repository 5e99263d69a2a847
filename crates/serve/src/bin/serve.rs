//! The `serve` binary: a forecast-serving front end over an artifact
//! directory.
//!
//! ```text
//! serve --artifacts runs/artifacts [--addr 127.0.0.1:7878] [--budget-mb 256]
//!       [--queue-depth 256] [--max-batch 64] [--workers 2] [--warm 16]
//!       [--metrics FILE]
//! ```
//!
//! `--workers N` caps how many forecast batches execute at once; each
//! runs on the connection thread whose request heads it, so the server
//! starts no threads for them.
//!
//! Prints `serve: listening on ADDR` once the socket is bound (the smoke
//! harness and scripts parse this line), then serves until a `shutdown`
//! request arrives. With `--metrics FILE` the final Prometheus dump is
//! written there on exit.

use std::process::ExitCode;
use std::sync::Arc;

use serve::registry::RegistryConfig;
use serve::{ModelRegistry, SchedulerConfig, ServeConfig, Server};

struct Args {
    artifacts: String,
    addr: String,
    budget_mb: usize,
    queue_depth: usize,
    max_batch: usize,
    workers: usize,
    warm: usize,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve --artifacts DIR [--addr HOST:PORT] [--budget-mb N] \
         [--queue-depth N] [--max-batch N] [--workers N] [--warm N] \
         [--metrics FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        artifacts: String::new(),
        addr: "127.0.0.1:7878".into(),
        budget_mb: 256,
        queue_depth: 256,
        max_batch: 64,
        workers: 2,
        warm: 0,
        metrics: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match flag.as_str() {
            "--artifacts" => args.artifacts = value("--artifacts"),
            "--addr" => args.addr = value("--addr"),
            "--budget-mb" => args.budget_mb = parse_num(&value("--budget-mb")),
            "--queue-depth" => args.queue_depth = parse_num(&value("--queue-depth")),
            "--max-batch" => args.max_batch = parse_num(&value("--max-batch")),
            "--workers" => args.workers = parse_num(&value("--workers")),
            "--warm" => args.warm = parse_num(&value("--warm")),
            "--metrics" => args.metrics = Some(value("--metrics")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve: unknown flag {other}");
                usage();
            }
        }
    }
    if args.artifacts.is_empty() {
        eprintln!("serve: --artifacts is required");
        usage();
    }
    for (flag, n) in [
        ("--queue-depth", args.queue_depth),
        ("--max-batch", args.max_batch),
        ("--workers", args.workers),
    ] {
        if n == 0 {
            eprintln!("serve: {flag} must be at least 1");
            usage();
        }
    }
    args
}

fn usage_missing(name: &str) -> String {
    eprintln!("serve: {name} needs a value");
    usage();
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("serve: expected a number, got {s:?}");
        usage();
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    telemetry::set_enabled(true);

    let registry = match ModelRegistry::open(
        &args.artifacts,
        RegistryConfig { budget_bytes: args.budget_mb << 20 },
    ) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("serve: opening artifact store {}: {e}", args.artifacts);
            return ExitCode::FAILURE;
        }
    };
    let specs = registry.specs();
    eprintln!("serve: {} model spec(s) in the manifest", specs.len());
    for spec in &specs {
        eprintln!("serve:   {spec}");
    }
    if args.warm > 0 {
        match registry.warm(args.warm) {
            Ok(n) => eprintln!("serve: warmed {n} model(s)"),
            Err(e) => {
                eprintln!("serve: warm-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let config = ServeConfig {
        addr: args.addr.clone(),
        scheduler: SchedulerConfig {
            queue_depth: args.queue_depth,
            max_batch: args.max_batch,
            workers: args.workers,
        },
        store: Default::default(),
    };
    let mut server = match Server::start(config, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The parseable readiness line (stdout, flushed).
    println!("serve: listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Block until a shutdown request flips the accept loop.
    server.wait();

    if let Some(path) = args.metrics {
        let dump = telemetry::export::prometheus(&telemetry::global().metrics().snapshot());
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("serve: writing metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("serve: metrics written to {path}");
    }
    eprintln!("serve: shut down cleanly");
    ExitCode::SUCCESS
}
