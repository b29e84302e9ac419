//! Minimal JSON support for machine-readable bench artifacts.
//!
//! The workspace is offline (no serde); bench binaries emit their results
//! through [`Json`] and CI validates the written artifact by re-parsing
//! it with [`parse`]. Only the subset of JSON the bench artifacts use is
//! supported: objects, arrays, strings (with `\"`/`\\`/`\n` escapes),
//! finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value: build one with the constructors, render with
/// [`Json::render`], or obtain one from text with [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite inputs render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap), making output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements of an array; `None` for other variants.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value; `None` for other variants.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value; `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) if x.is_finite() => {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset bench artifacts use).
///
/// # Errors
///
/// A human-readable description with the byte offset of the failure.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Containers may nest this deep. The parser recurses once per level,
/// so without a limit a few thousand `[` overflow the stack; bench
/// artifacts nest four or five levels.
const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} levels at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        let ch = char::from_u32(hex).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("schema", Json::Str("latte-throughput/v1".into())),
            ("smoke", Json::Bool(true)),
            (
                "gemm",
                Json::Arr(vec![Json::obj([
                    ("m", Json::Num(512.0)),
                    ("gflops", Json::Num(3.25)),
                    ("label", Json::Str("a \"quoted\" name\n".into())),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("nothing", Json::Null),
        ]);
        let text = doc.render();
        let back = parse(&text).expect("parse rendered output");
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_plain_json() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": false}}"#).expect("parse");
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).and_then(|a| a[2].as_num()),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] junk").is_err());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(512.0).render(), "512\n");
        assert!(Json::Num(f64::NAN).render().starts_with("null"));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        let at_limit = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past_it = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past_it).expect_err("too deep").contains("nested deeper"));
        // Deep enough to overflow the stack if the parser recursed.
        for open in ["[", "{\"k\":"] {
            assert!(parse(&open.repeat(200_000)).is_err());
        }
    }

    /// What a hostile artifact is made of: structure, string and escape
    /// syntax, number syntax, literals and their prefixes, multi-byte
    /// characters.
    const FRAGMENTS: [&str; 28] = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "\\u00e9", "\\n", "\\x", " ", "\n",
        "0", "-", "+", ".", "e", "1e999", "true", "tru", "false", "null", "nul", "\u{e9}", "\u{1f600}",
    ];

    fn document() -> String {
        Json::obj([
            ("schema", Json::Str("latte-throughput/v1".into())),
            ("rows", Json::Arr(vec![Json::obj([("m", Json::Num(512.0)), ("ok", Json::Bool(true))])])),
            ("label", Json::Str("a \"quoted\" \u{e9}\n".into())),
            ("nothing", Json::Null),
        ])
        .render()
    }

    /// Whatever `parse` accepts it can render and read back.
    fn answers(text: &str) -> Result<(), TestCaseError> {
        if let Ok(value) = parse(text) {
            let rendered = value.render();
            prop_assert!(parse(&rendered).is_ok(), "accepted {text:?}, rejected its rendering {rendered:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Fuzz: arbitrary bytes (read as text the way a file would be),
        /// arbitrary runs of JSON's own syntax, and both spliced into a
        /// valid document at any character boundary, get a value or an
        /// error from `parse` — never a panic or a stack overflow.
        #[test]
        fn parse_answers_arbitrary_text(
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..64),
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24),
            at in 0usize..10_000,
            cut in 0usize..40,
        ) {
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let syntax: String = picks.iter().map(|&p| FRAGMENTS[p]).collect();
            answers(&raw)?;
            answers(&syntax)?;
            let doc = document();
            let boundaries: Vec<usize> = doc.char_indices().map(|(i, _)| i).chain([doc.len()]).collect();
            let from = boundaries[at % boundaries.len()];
            let to = boundaries[(at % boundaries.len() + cut).min(boundaries.len() - 1)];
            for fragment in [&raw, &syntax] {
                // Inserted, and replacing up to `cut` characters.
                answers(&format!("{}{fragment}{}", &doc[..from], &doc[from..]))?;
                answers(&format!("{}{fragment}{}", &doc[..from], &doc[to..]))?;
            }
        }
    }
}
