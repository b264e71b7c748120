//! Result records: a minimal JSON writer and the host fingerprint.

use std::fmt::Write as _;

/// A JSON value, built by hand (the workspace has no serde).
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust's shortest round-trip form keeps every digit.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One metric in the result line: `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `MQ_*` variables set in the environment, sorted.
pub fn mq_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MQ_"))
        .collect();
    vars.sort();
    vars
}

/// Host and build fingerprint stamped on every record.
pub fn fingerprint(nproc: usize, generator_threads: usize, connections: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let env = mq_env();
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("git_rev", Json::Str(git_rev())),
        ("generator_threads", Json::Int(generator_threads as u64)),
        ("connections", Json::Int(connections as u64)),
        ("mq_env_set", Json::Bool(!env.is_empty())),
        (
            "mq_env",
            Json::Obj(env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// (no git process, nothing outside the checkout); `unknown` when the
/// checkout is not a git repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_escapes_and_full_precision() {
        let j = Json::obj([
            ("a", Json::Num(0.1 + 0.2)),
            ("b", Json::str("q\"\\\n")),
            (
                "c",
                Json::Arr(vec![Json::Int(3), Json::Null, Json::Bool(true)]),
            ),
            ("d", Json::Num(f64::NAN)),
            ("e", Json::Num(2.0)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":0.30000000000000004,"b":"q\"\\\n","c":[3,null,true],"d":null,"e":2.0}"#
        );
    }
}
