//! The result line: one JSON object, written without a JSON library.
//!
//! Names and units are restricted to characters that need no escaping, and
//! that restriction is checked here rather than assumed, so the emitter never
//! has to escape anything.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name: letters, digits, `_`, `.`, `-`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit: letters, digits, `_`, `/`, `%`, `.`, `-`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; panics on a name, unit or value the result line cannot carry
    /// (a bug in the benchmark, not in the program under test).
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?}");
        assert!(valid_unit(unit), "metric unit {unit:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

/// Starts with a letter or digit; at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// At most 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The benchmark's last line of output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read back the `"name": {"value": v, "unit": "u"}` entries of a result
    /// line (test-only; enough of a parser for what `result_line` writes).
    fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
        let start = line.find("\"metrics\": {").expect("metrics key") + "\"metrics\": {".len();
        let mut rest = &line[start..line.len() - 2];
        let mut out = Vec::new();
        while let Some(open) = rest.find('"') {
            let after = &rest[open + 1..];
            let close = after.find('"').expect("closing quote");
            let name = after[..close].to_string();
            let after = &after[close..];
            let v0 = after.find("\"value\": ").expect("value") + "\"value\": ".len();
            let v1 = v0 + after[v0..].find(',').expect("comma");
            let value: f64 = after[v0..v1].parse().expect("number");
            let u0 = after.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
            let u1 = u0 + after[u0..].find('"').expect("unit close");
            out.push((name, value, after[u0..u1].to_string()));
            rest = &after[u1 + 2..];
        }
        out
    }

    #[test]
    fn names_and_values_round_trip() {
        let metrics = vec![
            Metric::new("job_p50_us", 45.900_000_000_000_006, "us"),
            Metric::new("sharding.pool.sojourn_p95_us", 1.0e-7, "us"),
            Metric::new("r8000-step.p99", 12345678.125, "1/s"),
            Metric::new("0zero", 0.0, "count"),
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.ends_with("}}"));
        let back = parse_metrics(&line);
        assert_eq!(back.len(), metrics.len());
        for (m, (name, value, unit)) in metrics.iter().zip(back) {
            assert_eq!(m.name, name);
            assert_eq!(
                m.value.to_bits(),
                value.to_bits(),
                "{name} keeps all its digits"
            );
            assert_eq!(m.unit, unit);
        }
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("a") && valid_name("9lives") && valid_name("a.b-c_d"));
        assert!(!valid_name("") && !valid_name(".a") && !valid_name("a b") && !valid_name("a\"b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }
}
