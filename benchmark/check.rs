//! `--check PATH`: validate a results file written with `--out` against
//! `BENCHMARK.json` — every workload listed there is present, correct,
//! and carries every end-to-end metric with its unit, plus every
//! per-layer metric when the file comes from a traced run.
//!
//! `simstats::json` only writes JSON, so this module carries the small
//! reader both files need.

use simstats::json::Value;

/// `(name, unit)` of every entry of one list in `BENCHMARK.json`
/// (workloads have no unit).
pub fn listed(spec: &Value, list: &str) -> Result<Vec<(String, Option<String>)>, String> {
    let Some(Value::Array(items)) = get(spec, list) else {
        return Err(format!("BENCHMARK.json has no `{list}` list"));
    };
    items
        .iter()
        .map(|m| {
            let name = get(m, "name")
                .and_then(str_of)
                .ok_or_else(|| format!("an entry of `{list}` has no name"))?;
            Ok((
                name.to_string(),
                get(m, "unit").and_then(str_of).map(String::from),
            ))
        })
        .collect()
}

/// Problems found, one line each; empty when the file is valid.
pub fn check(results: &str, spec: &str) -> Result<Vec<String>, String> {
    let results = parse(results).map_err(|e| format!("results file: {e}"))?;
    let spec = parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |list: &str| listed(&spec, list);
    let mut wanted = names("end_to_end")?;
    if get(&results, "trace") == Some(&Value::Bool(true)) {
        wanted.extend(names("per_layer")?);
    }
    let mut problems = Vec::new();
    for (workload, _) in names("workloads")? {
        let Some(w) = get(&results, "workloads").and_then(|ws| get(ws, &workload)) else {
            problems.push(format!("{workload}: missing"));
            continue;
        };
        if get(w, "correct") != Some(&Value::Bool(true)) {
            problems.push(format!("{workload}: outputs not correct"));
        }
        for (metric, unit) in &wanted {
            let Some(m) = get(w, "metrics").and_then(|ms| get(ms, metric)) else {
                problems.push(format!("{workload}: metric {metric} missing"));
                continue;
            };
            if !matches!(get(m, "value"), Some(Value::Num(_))) {
                problems.push(format!("{workload}: metric {metric} has no value"));
            }
            let got = get(m, "unit").and_then(str_of);
            if got != unit.as_deref() {
                problems.push(format!(
                    "{workload}: metric {metric} has unit {got:?}, expected {unit:?}"
                ));
            }
        }
    }
    Ok(problems)
}

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Nesting limit, so a hostile file cannot overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut entries = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    entries.push((k, self.value(depth + 1)?));
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat("}")?;
                        return Ok(Value::Object(entries));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat("]")?;
                        return Ok(Value::Array(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.s.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.s[start..self.i]).map_err(|_| self.err("bad UTF-8"))?,
            );
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self
                        .s
                        .get(self.i + 1)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_json_writer() {
        let v = Value::object()
            .with("name", "a \"q\" \\ \n µs")
            .with("n", -1.5e-3)
            .with("list", vec![1u64, 2])
            .with("empty", Value::object())
            .with("flags", vec![Value::Bool(true), Value::Null]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse(&"[".repeat(100)).is_err());
    }

    const SPEC: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "run_s", "unit": "s"}],
        "per_layer": [{"name": "engine.events", "unit": "count"}]}"#;

    fn results(trace: bool, unit: &str) -> String {
        let metric = |u: &str| Value::object().with("value", 1.0).with("unit", u);
        let mut metrics = Value::object().with("run_s", metric(unit));
        if trace {
            metrics.set("engine.events", metric("count"));
        }
        Value::object()
            .with("trace", trace)
            .with(
                "workloads",
                Value::object().with(
                    "w",
                    Value::object()
                        .with("correct", true)
                        .with("metrics", metrics),
                ),
            )
            .to_json()
    }

    #[test]
    fn accepts_complete_results() {
        assert_eq!(
            check(&results(false, "s"), SPEC).unwrap(),
            Vec::<String>::new()
        );
        assert_eq!(
            check(&results(true, "s"), SPEC).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn rejects_a_wrong_unit_or_a_missing_workload() {
        assert_eq!(check(&results(false, "ms"), SPEC).unwrap().len(), 1);
        let other = SPEC.replace("\"w\"", "\"v\"");
        assert_eq!(
            check(&results(false, "s"), &other).unwrap(),
            vec!["v: missing"]
        );
    }
}
