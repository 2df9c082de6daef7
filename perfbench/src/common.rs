//! Shared plumbing: statistics, the correctness ledger, host facts and
//! the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mm_accel::CostModel;
use mm_mapspace::{MapSpace, Mapping};

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (NaN when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Counts operations attempted and failed, and keeps the first few
/// failure messages for the log.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// The checks every returned best mapping must pass: it is a member of its
/// map space, its reported EDP equals a fresh `CostModel::evaluate` to the
/// bit, and it is not below the algorithmic lower bound.
pub fn check_best(
    what: &str,
    space: &MapSpace,
    model: &CostModel,
    mapping: Option<&Mapping>,
    reported_edp: f64,
) -> Result<(), String> {
    let mapping = mapping.ok_or_else(|| format!("{what}: no best mapping"))?;
    space
        .validate(mapping)
        .map_err(|e| format!("{what}: invalid best mapping: {e}"))?;
    let fresh = model.evaluate(mapping).edp;
    if fresh.to_bits() != reported_edp.to_bits() {
        return Err(format!(
            "{what}: reported EDP {reported_edp:e} != fresh evaluation {fresh:e}"
        ));
    }
    let lb = model.lower_bound().edp;
    if fresh.is_nan() || fresh < lb {
        return Err(format!(
            "{what}: EDP {fresh:e} below the lower bound {lb:e}"
        ));
    }
    Ok(())
}

/// Run `f`, turning a panic into an error message.
pub fn catch<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("{what}: panicked: {msg}")
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// Number of CPUs this process may run on (what `nproc` prints), from the
/// kernel's `Cpus_allowed_list`.
fn allowed_cpus() -> Option<usize> {
    let list = proc_status_field("Cpus_allowed_list:")?;
    let mut n = 0;
    for part in list.split(',') {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        let lo = ends.next()?.ok()?;
        let hi = match ends.next() {
            Some(h) => h.ok()?,
            None => lo,
        };
        n += hi + 1 - lo;
    }
    Some(n)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Milliseconds a fixed integer loop takes on this host. Recorded with
/// every result so a slow host shows; nothing is rescaled by it.
fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// One JSON line describing the host, printed before the result.
pub fn host_line() -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "host {{\"nproc\": {}, \"available_parallelism\": {}, \"cpu_model\": {}, \
         \"calibration_ms\": {:.3}, \"telemetry_level\": {}}}",
        allowed_cpus().unwrap_or(0),
        parallelism,
        json_string(&cpu_model()),
        calibration_ms(),
        json_string(&format!("{:?}", mm_telemetry::level())),
    )
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(k),
                    json_number(*v),
                    json_string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, (v, u)) in &self.0 {
            let _ = writeln!(out, "  {k:<36} {v:>16.6} {u}");
        }
        out
    }
}

/// A finite number as JSON (Rust's shortest round-trip form); non-finite
/// values become `null`, which a consumer rejects rather than misreads.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
