//! Perf-regression gate over the `BENCH_*.json` trajectory.
//!
//! The bench binaries emit machine-readable reports ([`crate::perf`]);
//! CI has always uploaded them as artifacts, but nothing *compared*
//! them — a perf regression landed silently. This module diffs freshly
//! generated reports against checked-in baselines
//! (`perf/baselines/BENCH_<figure>.json`) with per-metric tolerances;
//! the `perfgate` binary wires it into CI and offers `--bless` to
//! regenerate the baselines after an intentional change.
//!
//! Tolerances are per-metric *classes*, not per-file: metrics derived
//! from virtual time are bit-deterministic and gate tightly, while
//! wall-clock metrics (the `fig_scale` and `fig_dispatch` families)
//! vary with the host and only gate against order-of-magnitude
//! collapses.
//!
//! The workspace has no JSON dependency, so parsing is hand-rolled to
//! match: a minimal recursive-descent parser covering exactly the JSON
//! the hand-rolled writer emits (objects, arrays, strings, numbers,
//! `null`/`true`/`false`).

use std::fmt;

// ---------------------------------------------------------------------
// Minimal JSON value + parser.

/// A parsed JSON value (numbers as `f64`, like the writer emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered like the writer.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset for context.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through: advance by the
                    // char, not the byte.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bench-report shape.

/// A parsed `BENCH_<figure>.json` report.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The figure name (`"fig5"`, `"fig_dispatch"`, ...).
    pub figure: String,
    /// `(name, value)` metrics in file order; `None` for JSON `null`
    /// (a non-finite float at serialization time).
    pub metrics: Vec<(String, Option<f64>)>,
}

/// Parses a report file's JSON into its gate-relevant shape.
pub fn parse_report(text: &str) -> Result<GateReport, String> {
    let doc = parse_json(text)?;
    let figure = doc
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("missing \"figure\"")?
        .to_string();
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| match v {
                Json::Num(n) => Ok((k.clone(), Some(*n))),
                Json::Null => Ok((k.clone(), None)),
                other => Err(format!("metric {k:?} is not a number: {other:?}")),
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("missing \"metrics\" object".into()),
    };
    Ok(GateReport { figure, metrics })
}

// ---------------------------------------------------------------------
// Tolerance classes.

/// How a metric is gated against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Higher is better; fail when `fresh < baseline * min_ratio`.
    /// Used for wall-clock throughputs, with generous headroom for
    /// host-speed variance.
    HigherBetter {
        /// Smallest acceptable `fresh / baseline`.
        min_ratio: f64,
    },
    /// Lower is better; fail when `fresh > baseline * max_ratio`.
    LowerBetter {
        /// Largest acceptable `fresh / baseline`.
        max_ratio: f64,
    },
    /// Two-sided relative tolerance; used for virtual-time metrics,
    /// which are deterministic and should barely move.
    Within {
        /// Allowed `|fresh - baseline| / |baseline|`.
        rel: f64,
    },
}

/// The gate class for a metric name.
///
/// The classes lean on the metric naming conventions the bench
/// binaries already use: wall-clock metric names say so
/// (`*_per_sec` on `fig_dispatch`, `sim_wall_ratio_*`,
/// `wall_us_per_kernel_*`, `heal_wall_us_*` on `fig_scale`); every
/// other metric is derived from virtual time and replays
/// bit-identically.
pub fn rule_for(figure: &str, metric: &str) -> Rule {
    // fig_dispatch throughputs are wall-clock.
    if figure == "fig_dispatch" {
        return Rule::HigherBetter { min_ratio: 0.125 };
    }
    // fig_scale's wall-clock families.
    if metric.starts_with("sim_wall_ratio_") {
        return Rule::HigherBetter { min_ratio: 0.125 };
    }
    if metric.starts_with("wall_us_per_kernel_") || metric.starts_with("heal_wall_us_") {
        return Rule::LowerBetter { max_ratio: 8.0 };
    }
    // Everything else is virtual-time: deterministic, tight.
    Rule::Within { rel: 0.02 }
}

// ---------------------------------------------------------------------
// Comparison.

/// One per-metric comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Figure the metric belongs to.
    pub figure: String,
    /// Metric name.
    pub metric: String,
    /// What happened.
    pub verdict: Verdict,
}

/// Outcome of gating one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Outside tolerance; carries fresh and baseline values.
    Regressed {
        /// Value in the fresh report.
        fresh: f64,
        /// Value in the checked-in baseline.
        baseline: f64,
        /// The rule that was violated.
        rule: Rule,
    },
    /// Present in the baseline but missing from the fresh report —
    /// lost coverage fails the gate.
    Missing,
    /// Present fresh but not in the baseline — fine (new metric), but
    /// flagged so the baseline gets re-blessed.
    Unbaselined,
}

impl Verdict {
    /// Whether this verdict fails the gate.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regressed { .. } | Verdict::Missing)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::Ok => write!(f, "ok        {}/{}", self.figure, self.metric),
            Verdict::Regressed {
                fresh,
                baseline,
                rule,
            } => write!(
                f,
                "REGRESSED {}/{}: {fresh} vs baseline {baseline} ({rule:?})",
                self.figure, self.metric
            ),
            Verdict::Missing => write!(
                f,
                "MISSING   {}/{}: in baseline but not in fresh report",
                self.figure, self.metric
            ),
            Verdict::Unbaselined => write!(
                f,
                "new       {}/{}: not in baseline (re-bless to record)",
                self.figure, self.metric
            ),
        }
    }
}

/// Gates one value against its baseline under `rule`.
fn check(rule: Rule, fresh: f64, baseline: f64) -> bool {
    match rule {
        Rule::HigherBetter { min_ratio } => fresh >= baseline * min_ratio,
        Rule::LowerBetter { max_ratio } => fresh <= baseline * max_ratio,
        Rule::Within { rel } => {
            let scale = baseline.abs().max(1e-12);
            (fresh - baseline).abs() <= rel * scale
        }
    }
}

/// Compares a fresh report against its baseline, producing one finding
/// per metric (union of both metric sets).
pub fn compare(fresh: &GateReport, baseline: &GateReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, base_value) in &baseline.metrics {
        let finding = match fresh.metrics.iter().find(|(n, _)| n == name) {
            None => Verdict::Missing,
            Some((_, fresh_value)) => match (fresh_value, base_value) {
                // Both null (non-finite at write time): equal enough.
                (None, None) => Verdict::Ok,
                (Some(f), Some(b)) => {
                    if check(rule_for(&fresh.figure, name), *f, *b) {
                        Verdict::Ok
                    } else {
                        Verdict::Regressed {
                            fresh: *f,
                            baseline: *b,
                            rule: rule_for(&fresh.figure, name),
                        }
                    }
                }
                // One side null, the other finite: a shape change.
                (None, Some(b)) => Verdict::Regressed {
                    fresh: f64::NAN,
                    baseline: *b,
                    rule: rule_for(&fresh.figure, name),
                },
                (Some(f), None) => Verdict::Regressed {
                    fresh: *f,
                    baseline: f64::NAN,
                    rule: rule_for(&fresh.figure, name),
                },
            },
        };
        findings.push(Finding {
            figure: fresh.figure.clone(),
            metric: name.clone(),
            verdict: finding,
        });
    }
    for (name, _) in &fresh.metrics {
        if !baseline.metrics.iter().any(|(n, _)| n == name) {
            findings.push(Finding {
                figure: fresh.figure.clone(),
                metric: name.clone(),
                verdict: Verdict::Unbaselined,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_writer_output_roundtrip() {
        let json = crate::perf::BenchReport::new(
            "figX",
            crate::perf::ClusterShape {
                islands: 2,
                hosts_per_island: 1,
                devices_per_host: 4,
            },
        )
        .metric("virtual_per_sec", 123.5)
        .metric("bad", f64::NAN)
        .to_json();
        let report = parse_report(&json).unwrap();
        assert_eq!(report.figure, "figX");
        assert_eq!(
            report.metrics,
            vec![
                ("virtual_per_sec".to_string(), Some(123.5)),
                ("bad".to_string(), None),
            ]
        );
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e3, null, true], "b\n": {"c": "d\"e"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Null,
                Json::Bool(true),
            ])
        );
        assert_eq!(
            v.get("b\n").unwrap().get("c").unwrap().as_str(),
            Some("d\"e")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
    }

    fn report(figure: &str, metrics: &[(&str, f64)]) -> GateReport {
        GateReport {
            figure: figure.to_string(),
            metrics: metrics
                .iter()
                .map(|(n, v)| (n.to_string(), Some(*v)))
                .collect(),
        }
    }

    #[test]
    fn virtual_metrics_gate_tightly() {
        let base = report("fig5", &[("pw_fused_per_sec", 100.0)]);
        let ok = report("fig5", &[("pw_fused_per_sec", 101.0)]);
        let bad = report("fig5", &[("pw_fused_per_sec", 90.0)]);
        assert!(compare(&ok, &base).iter().all(|f| !f.verdict.fails()));
        assert!(compare(&bad, &base).iter().any(|f| f.verdict.fails()));
    }

    #[test]
    fn wall_clock_metrics_gate_loosely() {
        let base = report("fig_dispatch", &[("det_kernels_per_sec", 8000.0)]);
        // 2x slower on a slower host: fine.
        let slower = report("fig_dispatch", &[("det_kernels_per_sec", 4000.0)]);
        // 10x collapse: the kind of regression the gate exists for.
        let collapsed = report("fig_dispatch", &[("det_kernels_per_sec", 800.0)]);
        assert!(compare(&slower, &base).iter().all(|f| !f.verdict.fails()));
        assert!(compare(&collapsed, &base).iter().any(|f| f.verdict.fails()));
    }

    #[test]
    fn missing_metric_fails_extra_metric_passes() {
        let base = report("fig5", &[("a", 1.0), ("b", 2.0)]);
        let fresh = report("fig5", &[("a", 1.0), ("c", 3.0)]);
        let findings = compare(&fresh, &base);
        assert!(findings
            .iter()
            .any(|f| f.metric == "b" && f.verdict == Verdict::Missing));
        assert!(findings
            .iter()
            .any(|f| f.metric == "c" && f.verdict == Verdict::Unbaselined));
        assert!(!findings
            .iter()
            .find(|f| f.metric == "c")
            .unwrap()
            .verdict
            .fails());
    }
}
