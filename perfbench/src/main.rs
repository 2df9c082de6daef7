//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <blackbox_sweep|mm_phase2|serve_mix> --seed <n> --seconds <s> --trace <0|1> \
//!     [--inject-eval-slowdown <fraction>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). Lines before it
//! record the host, the traced run's own end-to-end numbers and a digest of
//! the quality results. The exit code is non-zero when any check failed.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod blackbox;
mod common;
mod ladder;
mod phase2;
mod serve_mix;
mod timing;

use common::{json_string, Ledger, Metrics};

/// Master seed of every search; fixed, so quality repeats to the bit
/// across runs and workload seeds.
pub const SEARCH_SEED: u64 = 0x00C0_FFEE;

/// End-to-end metrics every workload reports (untraced run).
const E2E_METRICS: [&str; 11] = [
    "setup_s",
    "peak_rss_mb",
    "evals_per_s",
    "edp_over_lb",
    "mm_vs_sa_iso_iter",
    "mm_vs_ga_iso_iter",
    "mm_vs_rl_iso_iter",
    "mm_step_us",
    "requests_per_s",
    "request_p50_ms",
    "request_p90_ms",
];

/// Per-layer metrics every workload reports (traced run).
const LAYER_METRICS: [&str; 28] = [
    "accel.ns_per_eval",
    "accel.batch_len",
    "search.propose_ns.sa",
    "search.propose_ns.ga",
    "search.propose_ns.random",
    "search.report_ns",
    "mapper.overhead_ns_per_eval",
    "mapper.pool_busy_share",
    "nn.input_grad_us",
    "nn.forward_us",
    "nn.forward_batch64_us_per_row",
    "core.encode_us",
    "core.decode_us",
    "mapspace.project_us",
    "core.step_residual_us",
    "core.datagen_s",
    "nn.train_s",
    "core.improving_step_share",
    "core.mm_step_in_evals",
    "search.step_us.sa",
    "search.step_us.ga",
    "search.step_us.rl",
    "serve.submit_us",
    "serve.hit_request_ms",
    "serve.fresh_request_ms",
    "serve.cache_hit_share",
    "serve.shared_share",
    "serve.rejected",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Extra evaluator time as a fraction of the evaluation's own
    /// (injected-regression self-check; 0 in normal runs).
    pub inject: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--inject-eval-slowdown" => args.inject = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a workload run produced.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub ledger: Ledger,
    /// Bit patterns of every quality result, for the traced/untraced and
    /// run-to-run comparisons.
    pub quality: Vec<String>,
    pub trained: Option<phase2::Trained>,
}

impl Outcome {
    pub fn failed(ledger: Ledger) -> Self {
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            ledger,
            quality: Vec::new(),
            trained: None,
        }
    }
}

/// FNV-1a digest of the quality results.
fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.join("\n").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Keep exactly `names`; a missing or non-finite one is a failed check.
fn select(all: &Metrics, names: &[&str], ledger: &mut Ledger) -> Metrics {
    let mut out = Metrics::default();
    for &name in names {
        match all.0.get(name) {
            Some(&(v, unit)) if v.is_finite() => out.set(name, v, unit),
            Some(&(v, _)) => ledger.fail(format!("metric {name} is not finite: {v}")),
            None => ledger.fail(format!("metric {name} was not measured")),
        }
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    mm_telemetry::set_level(mm_telemetry::Level::Off);
    println!("{}", common::host_line());

    let run = match args.workload.as_str() {
        "blackbox_sweep" => blackbox::run,
        "mm_phase2" => phase2::run,
        "serve_mix" => serve_mix::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut outcome = run(&args);
    outcome.e2e.set("peak_rss_mb", common::peak_rss_mb(), "MB");
    if args.trace {
        ladder::fill(
            &mut outcome.layers,
            &mut outcome.ledger,
            outcome.trained.as_ref(),
        );
    }

    let mut ledger = outcome.ledger;
    let e2e = select(&outcome.e2e, &E2E_METRICS, &mut ledger);
    let metrics = if args.trace {
        // The traced run's own end-to-end numbers: diff them against an
        // untraced run of the same seed for the tracing overhead.
        println!("traced_e2e {}", e2e.to_json());
        select(&outcome.layers, &LAYER_METRICS, &mut ledger)
    } else {
        e2e
    };
    println!(
        "quality {{\"results\": {}, \"digest\": {}}}",
        outcome.quality.len(),
        json_string(&digest(&outcome.quality))
    );
    println!(
        "workload {} seed {} trace {}:",
        args.workload, args.seed, args.trace as u8
    );
    print!("{}", metrics.table());
    let failed_share = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!("  {:<36} {:>16.6} share", "failed_share", failed_share);
    for msg in ledger.messages() {
        println!("FAILED: {msg}");
    }
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
