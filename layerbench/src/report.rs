//! Metric collection, the environment fingerprint, and the result line.

use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        // A metric that could not be measured reads 0, never NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable findings; a correctness failure is one of them.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn fingerprint(root: &Path, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"git_sha\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{}}}",
        git_sha(root),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        trace as u8,
    )
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// A readable table of every metric, to stderr.
pub fn print_table(title: &str, outcome: &Outcome) {
    eprintln!("== {title}");
    let width = outcome
        .metrics
        .0
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &outcome.metrics.0 {
        eprintln!("  {:width$}  {:>14.4} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        eprintln!("  note: {n}");
    }
    for f in &outcome.failures {
        eprintln!("  FAIL: {f}");
    }
    eprintln!(
        "  attempted {}, failed {}, correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
}
