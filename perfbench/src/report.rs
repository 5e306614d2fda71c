//! The one-line JSON report each binary prints.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `kernels/s`, `acq/kernel`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark process.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the layers were traced.
    pub traced: bool,
    /// Measured trials (warm-up excluded).
    pub trials: usize,
    /// Programs submitted over the measured trials.
    pub attempted: u64,
    /// Programs whose run or sink object resolved to an error.
    pub failed: u64,
    /// Failed correctness checks; empty when the outputs are right.
    pub errors: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (sample counts, percentiles).
    pub notes: Vec<(String, f64)>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            ..Report::default()
        }
    }

    /// Adds a note.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"trials\":{},\"attempted\":{},\"failed\":{},\"correct\":{},\"errors\":[",
            quote(&self.workload),
            self.seed,
            self.traced,
            self.trials,
            self.attempted,
            self.failed,
            self.errors.is_empty(),
        );
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        s.push_str(&errors.join(","));
        s.push_str("],\"metrics\":{");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        s.push_str(&metrics.join(","));
        s.push_str("},\"notes\":{");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
            .collect();
        s.push_str(&notes.join(","));
        s.push_str("}}");
        s
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`, which the runner rejects.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_full_precision() {
        let mut r = Report::new("dispatch", 7, false);
        r.errors.push("a \"quoted\"\nline".into());
        r.metrics.push(Metric::new("setup_s", 0.123456789012, "s"));
        r.metrics.push(Metric::new("bad", f64::NAN, "s"));
        let j = r.to_json();
        assert!(j.contains(r#""a \"quoted\"\u000aline""#), "{j}");
        assert!(
            j.contains(r#""setup_s":{"value":0.123456789012,"unit":"s"}"#),
            "{j}"
        );
        assert!(j.contains(r#""bad":{"value":null"#), "{j}");
        assert!(j.contains(r#""correct":false"#), "{j}");
    }
}
