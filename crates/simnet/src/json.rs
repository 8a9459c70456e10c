//! The JSON building blocks every report and profile writer shares.
//!
//! Canonical artifacts are compared byte for byte across reruns, so all of
//! them format numbers the same way: the shortest round-trip decimal form
//! (Rust's `Display`, which is deterministic and platform-independent), with
//! non-finite values written as `null`.

use std::fmt::Display;

use crate::MetricExport;

/// Shortest round-trip JSON number; NaN and infinities become `null`.
/// Works for `f32` and `f64` alike (an `f32` keeps its own shortest form).
pub fn num<T: Into<f64> + Display + Copy>(v: T) -> String {
    if v.into().is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

/// Appends `"key":value` to an object body, comma-separated unless `first`.
/// `value` must already be JSON.
pub fn push_field(out: &mut String, key: &str, value: &str, first: bool) {
    if !first {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
}

/// Appends `,"percentiles":[...]`, one object per metric. Wall-clock
/// (non-deterministic) metrics are written only with `timings`, so the
/// canonical form stays byte-stable across reruns.
pub fn push_percentiles(out: &mut String, metrics: &[MetricExport], timings: bool) {
    out.push_str(",\"percentiles\":[");
    let mut first = true;
    for m in metrics.iter().filter(|m| timings || m.deterministic) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        push_field(out, "name", &format!("\"{}\"", m.name), true);
        push_field(out, "kind", &format!("\"{}\"", m.kind), false);
        push_field(out, "count", &m.count.to_string(), false);
        push_field(out, "value", &num(m.value), false);
        push_field(out, "min", &num(m.min), false);
        push_field(out, "max", &num(m.max), false);
        push_field(out, "p50", &num(m.p50), false);
        push_field(out, "p95", &num(m.p95), false);
        push_field(out, "p99", &num(m.p99), false);
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_use_shortest_round_trip_form_and_null() {
        assert_eq!(num(0.1f64), "0.1");
        assert_eq!(num(0.1f32), "0.1");
        assert_eq!(num(3.0f64), "3");
        assert_eq!(num(-0.0f64), "-0");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f32::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn percentiles_skip_wall_metrics_unless_timed() {
        let metric = |name: &str, deterministic| MetricExport {
            name: name.into(),
            kind: "counter",
            deterministic,
            count: 1,
            value: 2.5,
            min: 2.5,
            max: 2.5,
            p50: 0.0,
            p95: 0.0,
            p99: f64::NAN,
        };
        let metrics = [metric("sim/x", true), metric("wall/y", false)];
        let mut canonical = String::new();
        push_percentiles(&mut canonical, &metrics, false);
        assert_eq!(
            canonical,
            r#","percentiles":[{"name":"sim/x","kind":"counter","count":1,"value":2.5,"min":2.5,"max":2.5,"p50":0,"p95":0,"p99":null}]"#
        );
        let mut timed = String::new();
        push_percentiles(&mut timed, &metrics, true);
        assert!(timed.contains("\"name\":\"wall/y\""));
        let mut empty = String::new();
        push_percentiles(&mut empty, &[], true);
        assert_eq!(empty, r#","percentiles":[]"#);
    }
}
