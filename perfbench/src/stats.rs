//! Sample aggregation and the result report.

use std::time::Duration;

/// Latency samples of one operation kind, in milliseconds.
///
/// A failed or refused operation is recorded as `+inf`: it misses every
/// latency limit, so it moves the percentiles instead of silently
/// vanishing from them.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.0.push(f64::INFINITY);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile, linearly interpolated between order statistics
    /// (NaN when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly above the `q`-quantile.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.0.iter().filter(|&&x| x > cut).count()
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One reported metric: its value, unit and how many samples it
/// aggregates (1 for a single exact count or size).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics one run reports. `metrics` go into the final JSON line;
/// `info` lines are diagnostics printed in the table only.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Print every metric as `name value unit (n=samples)`.
    pub fn print_table(&self) {
        for (kind, list) in [("metric", &self.metrics), ("info", &self.info)] {
            for m in list {
                println!(
                    "{kind:<6} {:<32} {:>16.4} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// JSON has no infinities or NaN: a percentile that only failed
/// operations reached is written as the largest finite double.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn failures_move_percentiles() {
        let mut s = Samples::default();
        s.push_ms(1.0);
        s.push_failed();
        s.push_failed();
        assert!(s.p50().is_infinite());
        assert_eq!(s.beyond(0.0), 2);
    }
}
