//! Minimal flag parser — no external dependency needed for a handful of
//! flags.

use rsmem::CodeParams;
use std::collections::HashMap;

/// Parsed command line: positional arguments plus `--flag [value]` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    pub positional: Vec<String>,
    flags: HashMap<String, Option<String>>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 8] = [
    "--csv",
    "--duplex",
    "--plot",
    "--profile-json",
    "--quick",
    "--raw",
    "--trace-json",
    "--warn-timing",
];

/// Parses `argv` into positionals and flags.
///
/// A bare `--` ends flag parsing: everything after it is positional
/// (so wrapper commands like `rsmem trace -- stress --budget small`
/// keep the wrapped command's flags intact).
///
/// # Errors
///
/// Returns a message for a value-taking flag with no value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut iter = argv.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--" {
            parsed.positional.extend(iter.cloned());
            break;
        }
        if let Some(stripped) = arg.strip_prefix("--") {
            let name = format!("--{stripped}");
            if BOOLEAN_FLAGS.contains(&name.as_str()) {
                parsed.flags.insert(name, None);
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag {name} requires a value"))?;
                parsed.flags.insert(name, Some(value.clone()));
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

/// The argv of the command a wrapper subcommand (`profile`, `trace`,
/// `top`) runs: the first `wrapper` token is dropped, and so are the
/// wrapper's own flags (`own_bool_flags`, and `own_value_flags` with
/// their values) up to the first bare `--`, which is dropped too.
/// Everything after that `--` passes through untouched.
///
/// # Errors
///
/// Returns a message when nothing is left to wrap, or when the wrapped
/// command is the wrapper itself.
pub fn split_wrapped(
    argv: &[String],
    wrapper: &str,
    own_bool_flags: &[&str],
    own_value_flags: &[&str],
) -> Result<Vec<String>, String> {
    let mut inner: Vec<String> = Vec::with_capacity(argv.len());
    let mut stripped_wrapper = false;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        if !stripped_wrapper && arg == wrapper {
            stripped_wrapper = true;
        } else if arg == "--" {
            inner.extend(iter.cloned());
            break;
        } else if own_value_flags.contains(&arg.as_str()) {
            let _ = iter.next();
        } else if !own_bool_flags.contains(&arg.as_str()) {
            inner.push(arg.clone());
        }
    }
    match inner.first() {
        None => Err(format!(
            "{wrapper} requires a command to wrap (e.g. `rsmem {wrapper} -- sweep fig7`)"
        )),
        Some(first) if first == wrapper => Err(format!("{wrapper} cannot wrap itself")),
        Some(_) => Ok(inner),
    }
}

impl Parsed {
    /// True when a boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The raw value of a flag, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).and_then(|v| v.as_deref())
    }

    /// Parses a flag as `f64`.
    ///
    /// # Errors
    ///
    /// Message on an unparsable value.
    pub fn f64_flag(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {flag}: expected a number, got {v:?}")),
        }
    }

    /// Parses a flag as `usize`.
    ///
    /// # Errors
    ///
    /// Message on an unparsable value.
    pub fn usize_flag(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {flag}: expected an integer, got {v:?}")),
        }
    }

    /// Parses a flag as `u64`, accepting both decimal and `0x`-prefixed
    /// hexadecimal (seeds are conventionally quoted in hex, e.g.
    /// `--seed 0xDA7E`).
    ///
    /// # Errors
    ///
    /// Message on an unparsable value.
    pub fn u64_flag(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => {
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.map_err(|_| {
                    format!("flag {flag}: expected an integer (decimal or 0x-hex), got {v:?}")
                })
            }
        }
    }

    /// Parses `--code N,K,M` into validated [`CodeParams`] (default
    /// RS(18,16) over GF(2^8)), via `CodeParams::from_str`.
    ///
    /// # Errors
    ///
    /// Message on a malformed triple or invalid code.
    pub fn code_flag(&self) -> Result<CodeParams, String> {
        match self.value("--code") {
            None => Ok(CodeParams::rs18_16()),
            Some(v) => v.parse().map_err(|e| format!("--code {v:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn positionals_and_flags_separate() {
        let p = parse(&argv(&["ber", "--seu", "1e-5", "--csv"])).unwrap();
        assert_eq!(p.positional, vec!["ber"]);
        assert_eq!(p.value("--seu"), Some("1e-5"));
        assert!(p.has("--csv"));
        assert!(!p.has("--duplex"));
    }

    #[test]
    fn bench_and_profile_flags_are_boolean() {
        // These must not swallow the next token as a value.
        let p = parse(&argv(&["bench", "--quick", "--warn-timing", "out.json"])).unwrap();
        assert!(p.has("--quick"));
        assert!(p.has("--warn-timing"));
        assert_eq!(p.positional, vec!["bench", "out.json"]);
        let p = parse(&argv(&["profile", "--profile-json", "sweep", "fig7"])).unwrap();
        assert!(p.has("--profile-json"));
        assert_eq!(p.positional, vec!["profile", "sweep", "fig7"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["ber", "--seu"])).is_err());
    }

    #[test]
    fn double_dash_ends_flag_parsing() {
        let p = parse(&argv(&[
            "trace",
            "--trace-json",
            "--",
            "stress",
            "--budget",
            "small",
        ]))
        .unwrap();
        assert!(p.has("--trace-json"));
        assert!(!p.has("--budget"));
        assert_eq!(p.positional, vec!["trace", "stress", "--budget", "small"]);
        // A trailing separator is harmless.
        let p = parse(&argv(&["trace", "--"])).unwrap();
        assert_eq!(p.positional, vec!["trace"]);
    }

    #[test]
    fn numeric_flag_parsing() {
        let p = parse(&argv(&["x", "--seu", "1.7e-5", "--points", "25"])).unwrap();
        assert_eq!(p.f64_flag("--seu", 0.0).unwrap(), 1.7e-5);
        assert_eq!(p.usize_flag("--points", 10).unwrap(), 25);
        assert_eq!(p.f64_flag("--absent", 9.0).unwrap(), 9.0);
        assert!(p.f64_flag("--points", 0.0).is_ok()); // "25" parses as f64
    }

    #[test]
    fn bad_numbers_are_reported() {
        let p = parse(&argv(&["x", "--seu", "abc"])).unwrap();
        assert!(p.f64_flag("--seu", 0.0).is_err());
    }

    #[test]
    fn seed_flag_accepts_hex_and_decimal() {
        let p = parse(&argv(&["stress", "--seed", "0xDA7E"])).unwrap();
        assert_eq!(p.u64_flag("--seed", 0).unwrap(), 0xDA7E);
        let p = parse(&argv(&["stress", "--seed", "0Xda7e"])).unwrap();
        assert_eq!(p.u64_flag("--seed", 0).unwrap(), 0xDA7E);
        let p = parse(&argv(&["stress", "--seed", "42"])).unwrap();
        assert_eq!(p.u64_flag("--seed", 0).unwrap(), 42);
        let p = parse(&argv(&["stress"])).unwrap();
        assert_eq!(p.u64_flag("--seed", 7).unwrap(), 7);
        let bad = parse(&argv(&["stress", "--seed", "0xZZ"])).unwrap();
        assert!(bad.u64_flag("--seed", 0).is_err());
        let bad = parse(&argv(&["stress", "--seed", "-3"])).unwrap();
        assert!(bad.u64_flag("--seed", 0).is_err());
    }

    #[test]
    fn code_triple() {
        let p = parse(&argv(&["x", "--code", "36,16,8"])).unwrap();
        assert_eq!(p.code_flag().unwrap(), CodeParams::rs36_16());
        let d = parse(&argv(&["x"])).unwrap();
        assert_eq!(d.code_flag().unwrap(), CodeParams::rs18_16());
        let bad = parse(&argv(&["x", "--code", "36,16"])).unwrap();
        assert!(bad.code_flag().is_err());
    }
}
