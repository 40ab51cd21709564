//! The output contract: the last line of standard output is one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`, each metric carrying its value and unit.

use std::fmt::Write as _;

/// The end-to-end metrics (untraced run) with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("ands_removed_per_s", "1/s"),
    ("area_ratio", "ratio"),
    ("mapped_area_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip form). Non-finite values, which JSON cannot carry, become
/// `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                number(*value),
                string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
pub mod json {
    //! A minimal JSON reader, enough to check the output contract and
    //! `BENCHMARK.json` in tests.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Value::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, i);
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {i}", c as char))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut kv = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    skip_ws(b, i);
                    let Value::Str(k) = value(b, i)? else {
                        return Err(format!("object key expected at byte {i}"));
                    };
                    expect(b, i, b':')?;
                    kv.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(format!("',' or '}}' expected at byte {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("',' or ']' expected at byte {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut s = String::new();
                loop {
                    match b.get(*i) {
                        Some(b'"') => {
                            *i += 1;
                            return Ok(Value::Str(s));
                        }
                        Some(b'\\') => {
                            let esc = *b.get(*i + 1).ok_or("unterminated escape")?;
                            *i += 2;
                            match esc {
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(b.get(*i..*i + 4).ok_or("short \\u")?)
                                            .map_err(|e| e.to_string())?;
                                    let code =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(code).ok_or("bad \\u code")?);
                                    *i += 4;
                                }
                                c => s.push(c as char),
                            }
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&b[*i..]).map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            s.push(c);
                            *i += c.len_utf8();
                        }
                        None => return Err("unterminated string".into()),
                    }
                }
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                let text = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(kind: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = benchmark_json().get(kind).cloned() else {
            panic!("BENCHMARK.json lacks {kind}");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).expect("metric name");
                let unit = m.get("unit").and_then(Value::as_str).expect("metric unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn emitted(metrics: &[(&str, f64, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn result_line_meets_the_contract() {
        let line = result_line(
            true,
            12,
            0,
            &[("synth_s", 1.25, "s"), ("odd \"name\"", f64::NAN, "1/s")],
        );
        let v = parse(&line).expect("result line is JSON");
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(12.0)));
        let m = v.get("metrics").expect("metrics");
        let synth = m.get("synth_s").expect("synth_s");
        assert_eq!(synth.get("value"), Some(&Value::Num(1.25)));
        assert_eq!(synth.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            m.get("odd \"name\"").and_then(|x| x.get("value")),
            Some(&Value::Null)
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1 + 0.2;
        assert_eq!(number(x).parse::<f64>().expect("number"), x);
        assert_eq!(number(3.0), "3.0");
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let e2e: Vec<(&str, f64, &str)> = END_TO_END.iter().map(|&(n, u)| (n, 1.0, u)).collect();
        assert_eq!(emitted(&e2e), declared("end_to_end"));
        let layers = crate::layers::Layers::default().metrics(0.0, (0, 0));
        assert_eq!(emitted(&layers), declared("per_layer"));
    }

    #[test]
    fn benchmark_json_declares_every_workload() {
        let Some(Value::Arr(items)) = benchmark_json().get("workloads").cloned() else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<&str> = items
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
