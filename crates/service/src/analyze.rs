//! The `/v1/analyze` request schema: parsing, validation,
//! canonicalization and solving.
//!
//! A request describes one memory system and a mission-time grid. Two
//! requests that mean the same analysis must produce the same **canonical
//! config** — defaults filled in, units normalized, negative zeros
//! scrubbed — because the canonical config's JSON encoding is the cache
//! key. Validation rides on the model crates' own hooks
//! ([`CodeParams::new`], [`FaultRates::canonicalized`],
//! [`Scrubbing::canonicalized`]), so the service cannot accept a config
//! the solver would reject.

use crate::json::Value;
use rsmem::units::{ErasureRate, SeuRate, Time, TimeGrid};
use rsmem::{CodeFamily, CodeParams, FaultRates, MemorySystem, Scrubbing};

/// Maximum number of grid points a single request may ask for.
const MAX_POINTS: usize = 10_001;

/// Default mission horizon when the request gives none.
const DEFAULT_HORIZON_HOURS: f64 = 48.0;

/// Default number of grid points.
const DEFAULT_POINTS: usize = 25;

/// A validated, canonical analyze request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// `true` for the duplex arrangement.
    pub duplex: bool,
    /// The RS code.
    pub code: CodeParams,
    /// Canonicalized fault rates.
    pub rates: FaultRates,
    /// Canonicalized scrubbing policy.
    pub scrub: Scrubbing,
    /// Mission horizon in hours.
    pub horizon_hours: f64,
    /// Number of grid points (≥ 2).
    pub points: usize,
}

/// The fields `from_json` accepts; anything else is a hard 400 so a
/// typo'd field name cannot silently fall back to a default (which would
/// also split the cache).
const KNOWN_FIELDS: [&str; 9] = [
    "system",
    "code",
    "family",
    "seu_per_bit_day",
    "erasure_per_symbol_day",
    "scrub_period_s",
    "horizon_hours",
    "horizon_months",
    "points",
];

impl AnalyzeRequest {
    /// Parses and validates a request body.
    ///
    /// Accepted shape (all fields optional except `code` forms must be
    /// well-formed when present):
    ///
    /// ```json
    /// {
    ///   "system": "simplex" | "duplex",
    ///   "code": "18,16,8" | [18, 16, 8] | {"n": 18, "k": 16, "m": 8},
    ///   "family": "rs" | "rm" | "irs",   // optional; defaults to "rs"
    ///   "seu_per_bit_day": 1.7e-5,
    ///   "erasure_per_symbol_day": 0,
    ///   "scrub_period_s": 900,
    ///   "horizon_hours": 48,      // or "horizon_months": 24 (exclusive)
    ///   "points": 25
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first problem found.
    pub fn from_json(body: &Value) -> Result<AnalyzeRequest, String> {
        let object = body
            .as_object()
            .ok_or("request body must be a JSON object")?;
        for key in object.keys() {
            if !KNOWN_FIELDS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (known fields: {})",
                    KNOWN_FIELDS.join(", ")
                ));
            }
        }

        let duplex = match body.get("system").map(|v| v.as_str()) {
            None => false,
            Some(Some("simplex")) => false,
            Some(Some("duplex")) => true,
            Some(Some(other)) => {
                return Err(format!(
                    "field \"system\": expected \"simplex\" or \"duplex\", got {other:?}"
                ))
            }
            Some(None) => return Err("field \"system\": expected a string".into()),
        };

        let code = parse_code(body.get("code"))?;
        // The `family` field is a validated cross-check: the code spec
        // itself selects the family (prefixed string forms like "rm:5"
        // or "irs:18,16,8,2"; plain forms stay RS), and a `family`
        // member that disagrees is a hard 400 rather than a silent
        // reinterpretation of the geometry.
        if let Some(v) = body.get("family") {
            let family: CodeFamily = v
                .as_str()
                .ok_or("field \"family\": expected a string")?
                .parse()
                .map_err(|e| format!("field \"family\": {e}"))?;
            if family != code.family() {
                return Err(format!(
                    "field \"family\": \"{family}\" does not match the code spec ({code}); \
                     select a family with a prefixed code string such as \"rm:5\" or \
                     \"irs:18,16,8,2\""
                ));
            }
        }

        let seu = number_field(body, "seu_per_bit_day")?.unwrap_or(0.0);
        let erasure = number_field(body, "erasure_per_symbol_day")?.unwrap_or(0.0);
        let rates = FaultRates {
            seu: SeuRate::per_bit_day(seu),
            erasure: ErasureRate::per_symbol_day(erasure),
        }
        .canonicalized()
        .map_err(|e| e.to_string())?;

        let scrub = match body.get("scrub_period_s") {
            None | Some(Value::Null) => Scrubbing::None,
            Some(v) => {
                let seconds = v
                    .as_f64()
                    .ok_or("field \"scrub_period_s\": expected a number or null")?;
                Scrubbing::every_seconds(seconds)
                    .canonicalized()
                    .map_err(|e| e.to_string())?
            }
        };

        let horizon_hours = match (
            number_field(body, "horizon_hours")?,
            number_field(body, "horizon_months")?,
        ) {
            (Some(_), Some(_)) => {
                return Err("give either \"horizon_hours\" or \"horizon_months\", not both".into())
            }
            (Some(hours), None) => hours,
            (None, Some(months)) => Time::from_months(months).as_hours(),
            (None, None) => DEFAULT_HORIZON_HOURS,
        };
        if !horizon_hours.is_finite() || horizon_hours <= 0.0 {
            return Err("the mission horizon must be positive and finite".into());
        }

        let points = match body.get("points") {
            None => DEFAULT_POINTS,
            Some(v) => {
                let x = v.as_f64().ok_or("field \"points\": expected an integer")?;
                if x.fract() != 0.0 || !(2.0..=MAX_POINTS as f64).contains(&x) {
                    return Err(format!(
                        "field \"points\": expected an integer in 2..={MAX_POINTS}"
                    ));
                }
                x as usize
            }
        };

        Ok(AnalyzeRequest {
            duplex,
            code,
            rates,
            scrub,
            horizon_hours,
            points,
        })
    }

    /// The canonical config object — defaults filled, keys sorted by the
    /// JSON encoder. Its [`Value::encode`] string is the cache key.
    fn canonical_config(&self) -> Value {
        // `family` (and the interleave `depth` inside `code`) are
        // emitted only for non-RS families, so every pre-existing RS
        // cache key stays byte-identical.
        let mut code_members = vec![
            ("n", Value::Number(self.code.n() as f64)),
            ("k", Value::Number(self.code.k() as f64)),
            ("m", Value::Number(f64::from(self.code.m()))),
        ];
        if self.code.family() == CodeFamily::Irs {
            code_members.push(("depth", Value::Number(self.code.depth() as f64)));
        }
        let mut fields = vec![
            (
                "system",
                Value::String(if self.duplex { "duplex" } else { "simplex" }.into()),
            ),
            ("code", Value::object(code_members)),
            (
                "seu_per_bit_day",
                Value::Number(self.rates.seu.as_per_bit_day()),
            ),
            (
                "erasure_per_symbol_day",
                Value::Number(self.rates.erasure.as_per_symbol_day()),
            ),
            (
                "scrub_period_s",
                match self.scrub {
                    Scrubbing::None => Value::Null,
                    Scrubbing::Periodic { period } => Value::Number(period.as_seconds()),
                },
            ),
            ("horizon_hours", Value::Number(self.horizon_hours)),
            ("points", Value::Number(self.points as f64)),
        ];
        if self.code.family() != CodeFamily::Rs {
            fields.push(("family", Value::String(self.code.family().to_string())));
        }
        Value::object(fields)
    }

    /// The cache key: the canonical config, encoded.
    pub fn cache_key(&self) -> String {
        self.canonical_config().encode()
    }

    /// A short hex fingerprint of the cache key (FNV-1a 64), echoed to
    /// clients as `config_id`.
    pub fn config_id(&self) -> String {
        format!("{:016x}", fnv1a(self.cache_key().as_bytes()))
    }

    /// The configured [`MemorySystem`].
    pub fn system(&self) -> MemorySystem {
        let base = if self.duplex {
            MemorySystem::duplex(self.code)
        } else {
            MemorySystem::simplex(self.code)
        };
        base.with_rates(self.rates).with_scrubbing(self.scrub)
    }

    /// Solves the request and encodes the response body.
    ///
    /// # Errors
    ///
    /// A solver error message (configuration errors were already caught
    /// by `from_json`).
    pub fn solve(&self) -> Result<Value, String> {
        let grid = TimeGrid::linspace(
            Time::zero(),
            Time::from_hours(self.horizon_hours),
            self.points,
        );
        let curve = self
            .system()
            .ber_curve(grid.points())
            .map_err(|e| e.to_string())?;
        let times_hours: Vec<f64> = grid.points().iter().map(|t| t.as_hours()).collect();
        Ok(Value::object(vec![
            ("config", self.canonical_config()),
            ("config_id", Value::String(self.config_id())),
            ("times_hours", Value::numbers(&times_hours)),
            ("fail_probability", Value::numbers(&curve.fail_probability)),
            ("ber", Value::numbers(&curve.ber)),
        ]))
    }
}

fn number_field(body: &Value, name: &str) -> Result<Option<f64>, String> {
    match body.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {name:?}: expected a number")),
    }
}

/// Parses the three accepted `code` forms into validated [`CodeParams`].
fn parse_code(value: Option<&Value>) -> Result<CodeParams, String> {
    let err = |e: rsmem::ModelError| format!("field \"code\": {e}");
    match value {
        None => Ok(CodeParams::rs18_16()),
        Some(Value::String(s)) => s.parse().map_err(err),
        Some(Value::Array(items)) => {
            if !(2..=3).contains(&items.len()) {
                return Err("field \"code\": expected [n, k] or [n, k, m]".into());
            }
            let n = int_item(items.first(), "n")?;
            let k = int_item(items.get(1), "k")?;
            let m = match items.get(2) {
                None => 8,
                Some(_) => {
                    u32::try_from(int_item(items.get(2), "m")?).expect("int_item bounds the value")
                }
            };
            CodeParams::new(n, k, m).map_err(err)
        }
        Some(obj @ Value::Object(_)) => {
            for key in obj.as_object().expect("matched object").keys() {
                if !["n", "k", "m"].contains(&key.as_str()) {
                    return Err(format!("field \"code\": unknown member {key:?}"));
                }
            }
            let n = int_item(obj.get("n"), "n")?;
            let k = int_item(obj.get("k"), "k")?;
            let m = match obj.get("m") {
                None => 8,
                Some(_) => {
                    u32::try_from(int_item(obj.get("m"), "m")?).expect("int_item bounds the value")
                }
            };
            CodeParams::new(n, k, m).map_err(err)
        }
        Some(_) => Err("field \"code\": expected a string, array or object".into()),
    }
}

fn int_item(value: Option<&Value>, name: &str) -> Result<usize, String> {
    let x = value
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field \"code\": member {name:?} must be an integer"))?;
    if x.fract() != 0.0 || !(0.0..=65_536.0).contains(&x) {
        return Err(format!(
            "field \"code\": member {name:?} must be an integer in 0..=65536"
        ));
    }
    Ok(x as usize)
}

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn request(body: &str) -> Result<AnalyzeRequest, String> {
        AnalyzeRequest::from_json(&json::parse(body).map_err(|e| e.to_string())?)
    }

    #[test]
    fn defaults_fill_an_empty_request() {
        let r = request("{}").unwrap();
        assert!(!r.duplex);
        assert_eq!(r.code, CodeParams::rs18_16());
        assert_eq!(r.horizon_hours, DEFAULT_HORIZON_HOURS);
        assert_eq!(r.points, DEFAULT_POINTS);
        assert_eq!(r.scrub, Scrubbing::None);
    }

    #[test]
    fn all_code_forms_agree() {
        let by_string = request(r#"{"code": "36,16,8"}"#).unwrap();
        let by_array = request(r#"{"code": [36, 16, 8]}"#).unwrap();
        let by_object = request(r#"{"code": {"n": 36, "k": 16, "m": 8}}"#).unwrap();
        let default_m = request(r#"{"code": [36, 16]}"#).unwrap();
        assert_eq!(by_string, by_array);
        assert_eq!(by_string, by_object);
        assert_eq!(by_string, default_m);
        assert_eq!(by_string.code, CodeParams::rs36_16());
    }

    #[test]
    fn equivalent_requests_share_a_cache_key() {
        // Key order, code spelling, and horizon unit differ; the analysis
        // is the same.
        let a = request(
            r#"{"points": 25, "system": "duplex", "code": [18, 16, 8], "seu_per_bit_day": 1.7e-5, "horizon_hours": 48}"#,
        )
        .unwrap();
        let b = request(
            r#"{"code": "18,16,8", "system": "duplex", "seu_per_bit_day": 0.000017, "horizon_hours": 48.0, "points": 25}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.config_id(), b.config_id());
        // A different config must not collide at the key level.
        let c = request(r#"{"system": "simplex", "seu_per_bit_day": 1.7e-5}"#).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn canonical_config_encodes_deterministically() {
        let r = request(r#"{"scrub_period_s": 900, "system": "duplex"}"#).unwrap();
        let encoded = r.cache_key();
        assert!(encoded.contains("\"scrub_period_s\":900"));
        assert!(encoded.contains("\"system\":\"duplex\""));
        // Keys are sorted by the canonical encoder.
        let code_pos = encoded.find("\"code\"").unwrap();
        let system_pos = encoded.find("\"system\"").unwrap();
        assert!(code_pos < system_pos);
    }

    #[test]
    fn family_field_defaults_to_rs_and_leaves_cache_keys_unchanged() {
        // The golden property for cache compatibility: an explicit
        // "family": "rs" and an absent family must produce byte-identical
        // keys, and neither mentions the field at all.
        let bare = request(r#"{"code": "18,16,8"}"#).unwrap();
        let explicit = request(r#"{"family": "rs", "code": [18, 16, 8]}"#).unwrap();
        assert_eq!(bare.cache_key(), explicit.cache_key());
        assert!(!bare.cache_key().contains("family"));
        assert!(!bare.cache_key().contains("depth"));

        // Non-RS families key on the family (and depth for interleaves).
        let rm = request(r#"{"family": "rm", "code": "rm:5"}"#).unwrap();
        assert_eq!(rm.code, CodeParams::rm1(5).unwrap());
        assert!(rm.cache_key().contains("\"family\":\"rm\""));
        let irs = request(r#"{"code": "irs:18,16,8,2"}"#).unwrap();
        assert!(irs.cache_key().contains("\"family\":\"irs\""));
        assert!(irs.cache_key().contains("\"depth\":2"));
        assert_ne!(rm.cache_key(), irs.cache_key());

        // A family that contradicts the code spec is a hard 400.
        assert!(request(r#"{"family": "rm", "code": "18,16,8"}"#)
            .unwrap_err()
            .contains("does not match"));
        assert!(request(r#"{"family": "triplex"}"#).is_err());
        assert!(request(r#"{"family": 3}"#).is_err());
    }

    #[test]
    fn non_rs_families_solve() {
        for code in ["rm:4", "irs:15,9,4,2"] {
            let r = request(&format!(
                r#"{{"code": "{code}", "seu_per_bit_day": 1e-4, "points": 3}}"#
            ))
            .unwrap();
            let response = r.solve().unwrap_or_else(|e| panic!("{code}: {e}"));
            assert_eq!(
                response.get("ber").unwrap().as_array().unwrap().len(),
                3,
                "{code}"
            );
        }
    }

    #[test]
    fn months_horizon_converts_to_hours() {
        let r = request(r#"{"horizon_months": 24}"#).unwrap();
        assert!((r.horizon_hours - Time::from_months(24.0).as_hours()).abs() < 1e-9);
        assert!(request(r#"{"horizon_months": 24, "horizon_hours": 48}"#).is_err());
    }

    #[test]
    fn invalid_requests_are_rejected_with_messages() {
        for (body, needle) in [
            (r#"[1, 2]"#, "object"),
            (r#"{"system": "triplex"}"#, "triplex"),
            (r#"{"code": "16,18,8"}"#, "code"),
            (r#"{"code": [18]}"#, "code"),
            (r#"{"code": {"n": 18, "k": 16, "q": 1}}"#, "unknown member"),
            (r#"{"seu_per_bit_day": -1}"#, "rate"),
            (r#"{"seu_per_bit_day": "fast"}"#, "number"),
            (r#"{"scrub_period_s": -900}"#, "scrub"),
            (r#"{"horizon_hours": 0}"#, "horizon"),
            (r#"{"points": 1}"#, "points"),
            (r#"{"points": 2.5}"#, "points"),
            (r#"{"points": 1000000}"#, "points"),
            (r#"{"tsc": 900}"#, "unknown field"),
        ] {
            let err = request(body).unwrap_err();
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "{body} -> {err}"
            );
        }
    }

    #[test]
    fn solve_matches_direct_library_call() {
        let r = request(
            r#"{"system": "duplex", "seu_per_bit_day": 1.7e-5, "scrub_period_s": 900, "points": 5}"#,
        )
        .unwrap();
        let response = r.solve().unwrap();
        let grid = TimeGrid::linspace(Time::zero(), Time::from_hours(48.0), 5);
        let direct = r.system().ber_curve(grid.points()).unwrap();
        let ber = response.get("ber").unwrap().as_array().unwrap();
        assert_eq!(ber.len(), 5);
        for (value, expected) in ber.iter().zip(&direct.ber) {
            assert_eq!(value.as_f64().unwrap().to_bits(), expected.to_bits());
        }
    }
}
