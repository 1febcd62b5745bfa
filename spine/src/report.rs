//! What a run prints: a detail record for people and `--compare`, then the
//! result object the benchmark contract asks for as the last line.

use prague_obs::json::escape;
use std::fmt::Write as _;

/// The end-to-end metrics, in the order they are printed. The names are
/// the ones `BENCHMARK.json` lists; a test holds the two together.
#[cfg(test)]
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "frames_per_s",
    "frame_tail_ms",
    "step_p50_ms",
    "step_tail_ms",
    "run_exact_p50_ms",
    "modify_p50_ms",
    "light_p50_ms",
    "rss_peak_mb",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None` when the run produced no sample for it.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why frames failed, for the reader.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics.
    pub details: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        Report {
            workload,
            seed,
            traced: false,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
            details: Vec::new(),
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn detail(&mut self, name: &'static str, value: f64) {
        self.details.push((name, value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Refuse a report with a metric that has no finite value: a window
    /// too short to sample every frame class measures nothing.
    pub fn finish(self) -> Result<Report, String> {
        let missing: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{}: no samples for {} ({} frames attempted, {} failed{}); \
                 run longer with --seconds",
                self.workload,
                missing.join(", "),
                self.attempted,
                self.failed,
                self.notes
                    .first()
                    .map_or(String::new(), |n| format!(", first failure: {n}")),
            ));
        }
        if self.attempted == 0 {
            return Err(format!("{}: nothing was attempted", self.workload));
        }
        Ok(self)
    }

    /// The metrics as a JSON object, with or without the sample counts.
    fn metrics_json(&self, with_n: bool) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                m.value.unwrap_or(0.0),
                m.unit
            );
            if with_n {
                let _ = write!(s, ",\"n\":{}", m.n);
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// The contract's result object.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// Everything about the run on one line: what `--compare` reads.
    pub fn detail_line(&self, host: &str) -> String {
        let mut s = format!(
            "{{\"spine\":\"detail\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host\":{host},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"notes\":[",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", escape(n));
        }
        s.push_str("],\"details\":{");
        for (i, (name, value)) in self.details.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        let _ = write!(s, "}},\"metrics\":{}}}", self.metrics_json(true));
        s
    }
}
