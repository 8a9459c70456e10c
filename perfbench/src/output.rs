//! The result line the benchmark prints last, and a readable table.

use std::fmt::Write;

use crate::run::Outcome;

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// Metric names and units are plain identifiers, so they need no escaping.
/// Values print with every digit (`f64`'s shortest round-trip form); a
/// non-finite value, which JSON cannot hold, prints as `null`.
pub fn result_json(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One line per metric: name, value, unit, and for medians the sample
/// count and range, plus the samples in order when there are few.
pub fn table(outcome: &Outcome) -> String {
    let mut s = String::new();
    for m in &outcome.metrics {
        let _ = write!(s, "{:<40} {:>18.6} {:<8}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let _ = write!(
                s,
                " median of n={} in [{min:.6}, {max:.6}]",
                m.samples.len()
            );
            if m.samples.len() <= 12 {
                let all: Vec<String> = m.samples.iter().map(|v| format!("{v:.4}")).collect();
                let _ = write!(s, " ({})", all.join(" "));
            }
        }
        s.push('\n');
    }
    for f in &outcome.failures {
        let _ = writeln!(s, "FAILED: {f}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.25,
                unit: "s",
                samples: vec![0.25],
            }],
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
