//! The request-line codec: one NDJSON [`AdviceRequest`] in, one [`AdviceResponse`] out,
//! without building a [`serde::Value`] tree in either direction.
//!
//! * [`parse_request`] reads the fixed request key set in one pass.  It accepts only
//!   lines it can read exactly as `serde_json::from_str::<AdviceRequest>` would, and
//!   returns `None` for everything else — escapes, duplicate or unknown keys, nested
//!   values, trailing bytes, any value serde would reject — so the caller falls back
//!   to serde for those lines and their error text never diverges.
//! * [`write_response`] appends the bytes `serde_json::to_string` produces for a
//!   response: fields in declaration order, floats and strings through the same
//!   `serde_json` writers.
//!
//! Numbers are read by `serde_json::parse_number` and converted by the serde
//! `Deserialize` impls themselves, so `-0`, `1e400` or `18446744073709551615` land
//! exactly where the serde path puts them.

use crate::engine::{AdviceRequest, AdviceResponse, Decision, RequestKind, VmPhase};
use crate::pack::{PolicyCard, PolicyScore};
use serde::{Deserialize, Value};
use serde_json::{write_float, write_string};
use std::fmt::Write;

/// One scalar request value.  Anything else (objects, arrays, booleans) makes the
/// reader give up.
enum Scalar<'a> {
    Null,
    Str(&'a str),
    Num(Value),
}

/// A byte cursor over one request line.
struct Reader<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace (the set `serde_json` skips; not Unicode whitespace).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.peek() == Some(byte)).then(|| self.pos += 1)
    }

    /// A string with no escapes, borrowed from the line.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let rest = self.line.get(self.pos..)?;
        let len = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
        if rest.as_bytes().get(len) != Some(&b'"') {
            return None;
        }
        self.pos += len + 1;
        rest.get(..len)
    }

    fn scalar(&mut self) -> Option<Scalar<'a>> {
        match self.peek()? {
            b'"' => self.string().map(Scalar::Str),
            b'n' => {
                let rest = self.line.get(self.pos..)?;
                rest.starts_with("null").then(|| {
                    self.pos += 4;
                    Scalar::Null
                })
            }
            b'-' | b'0'..=b'9' => {
                let (value, end) = serde_json::parse_number(self.line.as_bytes(), self.pos).ok()?;
                self.pos = end;
                Some(Scalar::Num(value))
            }
            _ => None,
        }
    }
}

/// A number-or-null field, converted by its own serde impl.
fn number<T: Deserialize>(scalar: Scalar<'_>) -> Option<Option<T>> {
    match scalar {
        Scalar::Null => Some(None),
        Scalar::Num(value) => Option::<T>::deserialize(&value).ok(),
        Scalar::Str(_) => None,
    }
}

/// A string-or-null field.
fn text(scalar: Scalar<'_>) -> Option<Option<String>> {
    match scalar {
        Scalar::Null => Some(None),
        Scalar::Str(s) => Some(Some(s.to_string())),
        Scalar::Num(_) => None,
    }
}

/// Reads one request line in a single pass, without a `Value` tree.
///
/// Returns `None` for any line it does not read exactly as
/// `serde_json::from_str::<AdviceRequest>` would; the caller answers those through
/// serde.  A `Some` is always equal to what serde would have produced.
pub fn parse_request(line: &str) -> Option<AdviceRequest> {
    let mut reader = Reader { line, pos: 0 };
    let (mut kind, mut id, mut regime, mut cell) = (None, None, None, None);
    let (mut vm_age, mut job_len, mut overhead_minutes) = (None, None, None);
    let mut seen = 0u8;
    reader.skip_ws();
    reader.eat(b'{')?;
    reader.skip_ws();
    if reader.peek() != Some(b'}') {
        loop {
            reader.skip_ws();
            let key = reader.string()?;
            reader.skip_ws();
            reader.eat(b':')?;
            reader.skip_ws();
            let value = reader.scalar()?;
            let bit = match key {
                "kind" => {
                    let Scalar::Str(name) = value else {
                        return None;
                    };
                    kind = Some(RequestKind::from_name(name)?);
                    1
                }
                "id" => {
                    id = number(value)?;
                    2
                }
                "regime" => {
                    regime = text(value)?;
                    4
                }
                "cell" => {
                    cell = text(value)?;
                    8
                }
                "vm_age" => {
                    vm_age = number(value)?;
                    16
                }
                "job_len" => {
                    job_len = number(value)?;
                    32
                }
                "overhead_minutes" => {
                    overhead_minutes = number(value)?;
                    64
                }
                _ => return None,
            };
            if seen & bit != 0 {
                return None;
            }
            seen |= bit;
            reader.skip_ws();
            if reader.eat(b',').is_none() {
                break;
            }
        }
    }
    reader.eat(b'}')?;
    reader.skip_ws();
    if reader.pos != line.len() {
        return None;
    }
    Some(AdviceRequest {
        kind: kind?,
        id,
        regime,
        cell,
        vm_age,
        job_len,
        overhead_minutes,
    })
}

/// Writes `null` or the value.
fn opt<T>(out: &mut String, value: Option<T>, write: impl FnOnce(&mut String, T)) {
    match value {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

fn integer(out: &mut String, x: impl std::fmt::Display) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{x}");
}

fn floats(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_float(out, *x);
    }
    out.push(']');
}

fn scores(out: &mut String, scores: &[PolicyScore]) {
    out.push('[');
    for (i, score) in scores.iter().enumerate() {
        let PolicyScore { name, score } = score;
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_string(out, name);
        out.push_str(",\"score\":");
        write_float(out, *score);
        out.push('}');
    }
    out.push(']');
}

fn card(out: &mut String, card: &PolicyCard) {
    let PolicyCard {
        reference_job_len_hours,
        scheduling,
        checkpointing,
        recommended_scheduling,
        recommended_checkpointing,
    } = card;
    out.push_str("{\"reference_job_len_hours\":");
    write_float(out, *reference_job_len_hours);
    out.push_str(",\"scheduling\":");
    scores(out, scheduling);
    out.push_str(",\"checkpointing\":");
    scores(out, checkpointing);
    out.push_str(",\"recommended_scheduling\":");
    write_string(out, recommended_scheduling);
    out.push_str(",\"recommended_checkpointing\":");
    write_string(out, recommended_checkpointing);
    out.push('}');
}

/// Appends `response` as the exact bytes `serde_json::to_string(response)` produces.
pub fn write_response(response: &AdviceResponse, out: &mut String) {
    let AdviceResponse {
        kind,
        id,
        regime,
        cell,
        decision,
        vm_phase,
        reuse_makespan_hours,
        fresh_makespan_hours,
        expected_makespan_hours,
        failure_probability,
        survival_probability,
        expected_cost_usd,
        on_demand_cost_usd,
        checkpoint_cost_minutes,
        intervals_hours,
        checkpoint_count,
        scheduling,
        checkpointing,
        card: policy_card,
    } = response;
    out.push_str("{\"kind\":");
    write_string(out, kind.as_str());
    out.push_str(",\"id\":");
    opt(out, *id, integer);
    out.push_str(",\"regime\":");
    write_string(out, regime);
    out.push_str(",\"cell\":");
    opt(out, cell.as_deref(), write_string);
    out.push_str(",\"decision\":");
    opt(out, decision.map(Decision::as_str), write_string);
    out.push_str(",\"vm_phase\":");
    opt(out, vm_phase.map(VmPhase::as_str), write_string);
    out.push_str(",\"reuse_makespan_hours\":");
    opt(out, *reuse_makespan_hours, write_float);
    out.push_str(",\"fresh_makespan_hours\":");
    opt(out, *fresh_makespan_hours, write_float);
    out.push_str(",\"expected_makespan_hours\":");
    opt(out, *expected_makespan_hours, write_float);
    out.push_str(",\"failure_probability\":");
    opt(out, *failure_probability, write_float);
    out.push_str(",\"survival_probability\":");
    opt(out, *survival_probability, write_float);
    out.push_str(",\"expected_cost_usd\":");
    opt(out, *expected_cost_usd, write_float);
    out.push_str(",\"on_demand_cost_usd\":");
    opt(out, *on_demand_cost_usd, write_float);
    out.push_str(",\"checkpoint_cost_minutes\":");
    opt(out, *checkpoint_cost_minutes, write_float);
    out.push_str(",\"intervals_hours\":");
    opt(out, intervals_hours.as_deref(), floats);
    out.push_str(",\"checkpoint_count\":");
    opt(out, *checkpoint_count, integer);
    out.push_str(",\"scheduling\":");
    opt(out, scheduling.as_deref(), write_string);
    out.push_str(",\"checkpointing\":");
    opt(out, checkpointing.as_deref(), write_string);
    out.push_str(",\"card\":");
    opt(out, policy_card.as_ref(), card);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{PolicyCard, PolicyScore};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reader contract: `None`, or exactly serde's reading.  Requests are compared
    /// through `Debug`, which tells `-0.0` from `0.0` (`PartialEq` does not).
    fn assert_contract(line: &str) -> bool {
        let Some(fast) = parse_request(line) else {
            return false;
        };
        let serde = serde_json::from_str::<AdviceRequest>(line).ok();
        assert_eq!(
            format!("{:?}", Some(fast)),
            format!("{serde:?}"),
            "codec and serde disagree on {line:?}"
        );
        true
    }

    const KINDS: [&str; 4] = [
        "should-reuse",
        "checkpoint-plan",
        "expected-cost-makespan",
        "best-policy",
    ];
    const KEYS: [&str; 7] = [
        "kind",
        "id",
        "regime",
        "cell",
        "vm_age",
        "job_len",
        "overhead_minutes",
    ];
    const STRINGS: [&str; 6] = [
        "gcp-day-busy",
        "memoryless-8h",
        "n1-highcpu-16/us-east1-b/day",
        "",
        "café ünïcode",
        "with space",
    ];
    const NUMBERS: [&str; 14] = [
        "8",
        "8.0",
        "8e0",
        "0.5",
        "-0",
        "-0.0",
        "0",
        "1e400",
        "-1e400",
        "1e-320",
        "2.5E+1",
        "17.000000000000004",
        "1.7976931348623157e308",
        "-3.25",
    ];
    const IDS: [&str; 7] = [
        "0",
        "7",
        "-0",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "null",
    ];

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// JSON whitespace, or nothing.
    fn ws(rng: &mut StdRng) -> &'static str {
        pick(rng, &["", "", "", " ", "\t", "  ", "\r", " \n "])
    }

    /// A valid request line's key/value texts in random order, some keys absent and
    /// some explicitly `null`.
    fn entries(rng: &mut StdRng) -> Vec<(String, String)> {
        let mut entries = vec![("kind".to_string(), format!("\"{}\"", pick(rng, &KINDS)))];
        for key in KEYS.iter().skip(1) {
            if rng.gen_bool(0.3) {
                continue;
            }
            let value = if rng.gen_bool(0.1) {
                "null".to_string()
            } else {
                match *key {
                    "id" => pick(rng, &IDS).to_string(),
                    "regime" | "cell" => format!("\"{}\"", pick(rng, &STRINGS)),
                    _ if rng.gen_bool(0.5) => pick(rng, &NUMBERS).to_string(),
                    _ => {
                        let mut text = String::new();
                        write_float(&mut text, rng.gen_range(-10.0..50.0));
                        text
                    }
                }
            };
            entries.push((key.to_string(), value));
        }
        shuffle(rng, &mut entries);
        entries
    }

    fn shuffle(rng: &mut StdRng, entries: &mut [(String, String)]) {
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..i + 1));
        }
    }

    fn render(rng: &mut StdRng, entries: &[(String, String)]) -> String {
        let mut line = format!("{}{{", ws(rng));
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{}\"{key}\"{}:{}{value}{}",
                ws(rng),
                ws(rng),
                ws(rng),
                ws(rng)
            ));
        }
        line.push('}');
        line.push_str(ws(rng));
        line
    }

    /// A random character of `key` written as a `\u` escape.
    fn escape_one(rng: &mut StdRng, text: &str) -> String {
        let chars: Vec<char> = text.chars().collect();
        if chars.is_empty() {
            return "\\u0041".to_string();
        }
        let at = rng.gen_range(0..chars.len());
        chars
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == at {
                    format!("\\u{:04x}", *c as u32)
                } else {
                    c.to_string()
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn reader_agrees_with_serde_on_valid_and_mutated_lines(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut entries = entries(&mut rng);
            let line = render(&mut rng, &entries);
            // Every well-formed line takes the codec path: values serde rejects
            // (an id past u64::MAX, a fractional id) never appear here.
            prop_assert!(assert_contract(&line), "valid line fell back: {line:?}");
            // Truncation at every byte offset.
            for cut in 0..line.len() {
                if let Some(prefix) = line.get(..cut) {
                    assert_contract(prefix);
                }
            }
            let target = rng.gen_range(0..entries.len());
            let accepted = match rng.gen_range(0..10) {
                0 => {
                    let copy = entries[target].clone();
                    entries.insert(rng.gen_range(0..entries.len() + 1), copy);
                    assert_contract(&render(&mut rng, &entries))
                }
                1 => {
                    let key = escape_one(&mut rng, &entries[target].0);
                    entries[target].0 = key;
                    assert_contract(&render(&mut rng, &entries))
                }
                2 => {
                    let value = pick(&mut rng, &STRINGS);
                    let escaped = match rng.gen_range(0..3) {
                        0 => escape_one(&mut rng, value),
                        1 => format!("{value}\\/x"),
                        _ => format!("\\\"{value}"),
                    };
                    entries[target].1 = format!("\"{escaped}\"");
                    assert_contract(&render(&mut rng, &entries))
                }
                3 => {
                    entries[target].1 = pick(
                        &mut rng,
                        &["NaN", "Infinity", "-Infinity", "nan", "inf", "+1", ".5", "1e",
                          "--1", "01", "1.", "true", "false", "nul", "nullx", "\"8\""],
                    )
                    .to_string();
                    assert_contract(&render(&mut rng, &entries));
                    false
                }
                4 => {
                    let id = pick(
                        &mut rng,
                        &["9223372036854775808", "18446744073709551616", "-1", "1.0", "1e3",
                          "-0", "18446744073709551615", "99999999999999999999999"],
                    );
                    entries.retain(|(key, _)| key != "id");
                    entries.push(("id".to_string(), id.to_string()));
                    let accepted = assert_contract(&render(&mut rng, &entries));
                    prop_assert_eq!(
                        accepted,
                        matches!(id, "9223372036854775808" | "-0" | "18446744073709551615")
                    );
                    false
                }
                5 => {
                    let key = pick(&mut rng, &["colour", "Kind", "kind ", "", "vm-age"]);
                    entries.insert(target, (key.to_string(), "1".to_string()));
                    assert_contract(&render(&mut rng, &entries))
                }
                6 => {
                    entries[target].1 = pick(
                        &mut rng,
                        &["{}", "[]", "{\"a\":1}", "[1.0]", "[\"gcp-day-busy\"]"],
                    )
                    .to_string();
                    assert_contract(&render(&mut rng, &entries))
                }
                7 => {
                    let raw = pick(&mut rng, &["\u{1}", "\u{1f}", "\t", "\u{7f}", "\r"]);
                    entries.retain(|(key, _)| key != "regime");
                    entries.push(("regime".to_string(), format!("\"gcp{raw}day\"")));
                    // Raw control bytes are legal inside serde's strings: the codec
                    // must read them exactly as serde does.
                    prop_assert!(assert_contract(&render(&mut rng, &entries)));
                    false
                }
                8 => {
                    let tail = pick(&mut rng, &["x", "}", ",", "{}", "\u{a0}", "\u{b}", "0"]);
                    let line = format!("{}{tail}", render(&mut rng, &entries));
                    assert_contract(&line)
                }
                _ => {
                    // Reordered keys with fresh whitespace still take the codec path.
                    shuffle(&mut rng, &mut entries);
                    prop_assert!(assert_contract(&render(&mut rng, &entries)));
                    false
                }
            };
            // Duplicates, escapes, unknown keys, nested values and trailing bytes
            // always fall back.
            prop_assert!(!accepted, "mutated line took the codec path");
        }
    }

    #[test]
    fn reader_handles_the_documented_edge_cases() {
        let accepted = [
            r#"{"kind":"best-policy"}"#,
            r#" { "kind" : "best-policy" , "id" : null , "regime" : null } "#,
            r#"{"id":-0,"kind":"should-reuse","vm_age":-0,"job_len":-0.0}"#,
            r#"{"kind":"should-reuse","vm_age":1e400,"job_len":8}"#,
            r#"{"kind":"best-policy","id":18446744073709551615}"#,
            "{\"kind\":\"best-policy\",\"regime\":\"a\u{1}b\"}",
        ];
        for line in accepted {
            assert!(assert_contract(line), "{line}");
        }
        let vm_age = parse_request(r#"{"kind":"should-reuse","vm_age":-0}"#)
            .and_then(|r| r.vm_age)
            .unwrap();
        assert!(
            vm_age == 0.0 && vm_age.is_sign_positive(),
            "-0 is the integer 0"
        );
        let fallback = [
            "",
            "{}",
            "{",
            r#"{"kind":null}"#,
            r#"{"kind":"Best-Policy"}"#,
            r#"{"kind":"best-policy","id":1.0}"#,
            r#"{"kind":"best-policy","id":-1}"#,
            r#"{"kind":"best-policy","id":18446744073709551616}"#,
            r#"{"kind":"best-policy","id":"1"}"#,
            r#"{"kind":"best-policy","regime":1}"#,
            r#"{"kind":"best-policy","vm_age":"1"}"#,
            r#"{"kind":"best-policy","vm_age":NaN}"#,
            r#"{"kind":"best-policy","id":1,"id":2}"#,
            r#"{"kind":"best-policy""#,
            r#"{"kind":"best-policy","regime":"a\/b"}"#,
            r#"{"kind":"best-policy","extra":1}"#,
            r#"{"kind":"best-policy","regime":{"a":1}}"#,
            r#"{"kind":"best-policy",}"#,
            r#"{"kind":"best-policy"} x"#,
            r#"{"kind":"best-policy"}{}"#,
            "\u{a0}{\"kind\":\"best-policy\"}",
            r#"[{"kind":"best-policy"}]"#,
        ];
        for line in fallback {
            assert_contract(line);
            assert!(parse_request(line).is_none(), "{line}");
        }
    }

    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        0.1,
        -2.5,
        1e21,
        1e-7,
        5e-324,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const TEXTS: [&str; 7] = [
        "",
        "gcp-day-busy",
        "quote \" and \\ backslash",
        "new\nline\ttab\r\u{1}\u{1f}",
        "ünïcödé ✓",
        "\u{7f}\u{2028}",
        "model-driven",
    ];

    fn float(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.4) {
            FLOATS[rng.gen_range(0..FLOATS.len())]
        } else {
            f64::from_bits(rng.gen())
        }
    }

    fn maybe<T>(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
        rng.gen_bool(0.6).then(|| make(rng))
    }

    fn text(rng: &mut StdRng) -> String {
        pick(rng, &TEXTS).to_string()
    }

    fn scores(rng: &mut StdRng) -> Vec<PolicyScore> {
        (0..rng.gen_range(0..5))
            .map(|_| PolicyScore {
                name: text(rng),
                score: float(rng),
            })
            .collect()
    }

    fn response(rng: &mut StdRng) -> AdviceResponse {
        let kinds = [
            RequestKind::ShouldReuse,
            RequestKind::CheckpointPlan,
            RequestKind::ExpectedCostMakespan,
            RequestKind::BestPolicy,
        ];
        AdviceResponse {
            kind: kinds[rng.gen_range(0..kinds.len())],
            id: maybe(rng, |rng| {
                if rng.gen_bool(0.5) {
                    rng.gen()
                } else {
                    rng.gen_range(0..100)
                }
            }),
            regime: text(rng),
            cell: maybe(rng, text),
            decision: maybe(rng, |rng| {
                if rng.gen_bool(0.5) {
                    Decision::Reuse
                } else {
                    Decision::LaunchFresh
                }
            }),
            vm_phase: maybe(rng, |rng| {
                [VmPhase::Early, VmPhase::Stable, VmPhase::Deadline][rng.gen_range(0..3)]
            }),
            reuse_makespan_hours: maybe(rng, float),
            fresh_makespan_hours: maybe(rng, float),
            expected_makespan_hours: maybe(rng, float),
            failure_probability: maybe(rng, float),
            survival_probability: maybe(rng, float),
            expected_cost_usd: maybe(rng, float),
            on_demand_cost_usd: maybe(rng, float),
            checkpoint_cost_minutes: maybe(rng, float),
            intervals_hours: maybe(rng, |rng| {
                let len = [0, 1, 3, 300][rng.gen_range(0..4)];
                (0..len).map(|_| float(rng)).collect()
            }),
            checkpoint_count: maybe(rng, |rng| rng.gen::<u64>() as usize),
            scheduling: maybe(rng, text),
            checkpointing: maybe(rng, text),
            card: maybe(rng, |rng| PolicyCard {
                reference_job_len_hours: float(rng),
                scheduling: scores(rng),
                checkpointing: scores(rng),
                recommended_scheduling: text(rng),
                recommended_checkpointing: text(rng),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn writer_matches_serde_byte_for_byte(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let response = response(&mut rng);
            let mut out = String::from("prefix:");
            write_response(&response, &mut out);
            prop_assert_eq!(
                out.strip_prefix("prefix:"),
                Some(serde_json::to_string(&response).unwrap().as_str())
            );
        }
    }
}
