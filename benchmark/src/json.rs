//! A minimal JSON value, writer and parser (the benchmark has no
//! third-party dependencies). The parser only ever reads what the writer
//! wrote: `all` and `selfcheck` run each measurement in a child process
//! and read its result line back.

/// A JSON value. Objects keep insertion order so reports diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers print without a fraction.
    Int(i64),
    /// Floats print with every digit needed to round-trip; non-finite
    /// values print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing characters at byte {}", p.pos))
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => {
                // `{}` on f64 is the shortest round-trip form but omits
                // the fraction for whole values and never uses exponents.
                out.push_str(&format!("{x}"));
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }

    /// A comma-separated sequence up to `close`, each item read by `item`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.eat(b':')?;
                    p.value().map(|v| fields.push((key, v)))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                match token.parse::<i64>() {
                    Ok(i) => Ok(Json::Int(i)),
                    Err(_) => token
                        .parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad number `{token}` at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // `\"`, `\\`, `\/`
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Num(1.25).render(), "1.25");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::str("a\"b\\c\n\u{1}").render(),
            "\"a\\\"b\\\\c\\n\\u0001\""
        );
    }

    #[test]
    fn floats_keep_every_digit() {
        let x = 1.203_456_789_012_345_6_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
    }

    #[test]
    fn parser_reads_back_what_the_writer_wrote() {
        let v = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("n", Json::Int(-3)),
            ("x", Json::Num(0.1 + 0.2)),
            ("s", Json::str("a\"b\\c\n\u{1}é")),
            (
                "nested",
                Json::Arr(vec![Json::Null, Json::obj(vec![("k", Json::Arr(vec![]))])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(0.1 + 0.2));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-3.0));
        assert!(v.get("missing").is_none());
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn objects_keep_order_compact_and_pretty() {
        let v = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::str("x")])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[2,"x"],"e":[]}"#);
        assert_eq!(
            v.pretty(),
            "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    \"x\"\n  ],\n  \"e\": []\n}\n"
        );
    }
}
