//! A minimal JSON writer, so the benchmark reports results without a
//! serialization dependency.

use std::fmt::Write;

/// A JSON value.
pub enum Json {
    Null,
    /// A number; non-finite values are written as `null`.
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as one line of JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
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
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes_strings() {
        let v = Json::obj([
            (
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(0.5), Json::Null]),
            ),
            ("b", Json::Str("q\"\\\n\u{1}".into())),
            ("c", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":[1,0.5,null],"b":"q\"\\\n\u0001","c":null}"#
        );
    }
}
