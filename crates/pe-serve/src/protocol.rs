//! The line-oriented wire protocol of the `pe-serve` front end.
//!
//! One request per `\n`-terminated line, one reply line per request, all
//! ASCII — trivially driven by `nc`, a load generator, or a test:
//!
//! ```text
//! classify <profile> <style> <f0> <f1> ... <fn>   -> ok <class> | err <msg>
//! metrics                                         -> <exposition lines> ... # EOF
//! trace [limit]                                   -> <trace lines> ... # EOF
//! ping                                            -> pong
//! shutdown                                        -> bye   (server drains and exits)
//! ```
//!
//! `metrics` and `trace` are the only **multi-line** replies: one series /
//! trace per line, terminated by a literal `# EOF` line, so a line-oriented
//! client reads until that sentinel. `metrics` is the Prometheus-style
//! per-model exposition ([`Metrics::prometheus`](crate::Metrics::prometheus)),
//! the server's only metrics surface;
//! `trace` dumps the most recent request span traces, newest first
//! (default limit 16).
//!
//! Features are the model's normalized `[0,1]` inputs; profile/style tokens
//! are those of [`ModelKey::token`](crate::ModelKey::token) (e.g.
//! `classify cardio seq 0.5 0.25 ...`). Keywords are case-insensitive.

use crate::registry::{parse_profile, parse_style, ModelKey};

/// The longest request line the server will buffer, in bytes. A 16-feature
/// `classify` line is well under 1 KiB even with full-precision floats;
/// 16 KiB leaves generous headroom while bounding per-connection memory.
/// The front end answers longer lines with `err line too long` and discards
/// input up to the next newline, keeping the connection usable.
pub const MAX_LINE: usize = 16 * 1024;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one feature vector on one model.
    Classify {
        /// The addressed model.
        key: ModelKey,
        /// Normalized feature vector.
        features: Vec<f64>,
    },
    /// Report the multi-line per-model metrics exposition (`# EOF` ends it).
    Metrics,
    /// Dump the most recent request span traces (`# EOF` ends it).
    Trace {
        /// Maximum traces to return, newest first.
        limit: usize,
    },
    /// Liveness probe.
    Ping,
    /// Drain and stop the server.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message (the payload of an `err` reply) on
/// empty lines, unknown verbs, bad tokens or non-numeric features.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or_else(|| "empty request".to_owned())?;
    match verb.to_ascii_lowercase().as_str() {
        "classify" => {
            let profile = parse_profile(toks.next().ok_or("missing profile")?)?;
            let style = parse_style(toks.next().ok_or("missing style")?)?;
            let features: Vec<f64> = toks
                .map(|t| {
                    let f = t.parse::<f64>().map_err(|_| format!("bad feature {t:?}"))?;
                    // NaN/±inf would flow straight into input quantization;
                    // reject them at the parse boundary instead.
                    if f.is_finite() {
                        Ok(f)
                    } else {
                        Err(format!("non-finite feature {t:?}"))
                    }
                })
                .collect::<Result<_, _>>()?;
            if features.is_empty() {
                return Err("missing features".to_owned());
            }
            Ok(Request::Classify { key: ModelKey::new(profile, style), features })
        }
        "metrics" => Ok(Request::Metrics),
        "trace" => {
            let limit = match toks.next() {
                None => 16,
                Some(t) => t.parse::<usize>().map_err(|_| format!("bad trace limit {t:?}"))?,
            };
            Ok(Request::Trace { limit })
        }
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => {
            Err(format!("unknown verb {other:?} (expected classify|metrics|trace|ping|shutdown)"))
        }
    }
}

/// Formats a `classify` request line (the client side of the protocol).
#[must_use]
pub fn format_classify(key: ModelKey, features: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "classify {} {}",
        crate::registry::profile_token(key.profile),
        crate::registry::style_token(key.style)
    );
    for f in features {
        let _ = write!(line, " {f}");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::styles::DesignStyle;
    use pe_data::UciProfile;

    #[test]
    fn classify_round_trips() {
        let key = ModelKey::new(UciProfile::Dermatology, DesignStyle::ParallelSvm);
        let line = format_classify(key, &[0.0, 0.5, 1.0]);
        assert_eq!(line, "classify dermatology par 0 0.5 1");
        let req = parse_request(&line).unwrap();
        assert_eq!(req, Request::Classify { key, features: vec![0.0, 0.5, 1.0] });
    }

    #[test]
    fn verbs_are_case_insensitive() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("trace").unwrap(), Request::Trace { limit: 16 });
        assert_eq!(parse_request("Trace 5").unwrap(), Request::Trace { limit: 5 });
        assert!(parse_request("trace five").unwrap_err().contains("bad trace limit"));
    }

    #[test]
    fn malformed_lines_are_rejected_with_messages() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("frobnicate").unwrap_err().contains("unknown verb"));
        // `stats` is not a verb: `metrics` is the only metrics surface.
        assert!(parse_request("stats").unwrap_err().contains("unknown verb"));
        assert!(parse_request("classify").unwrap_err().contains("missing profile"));
        assert!(parse_request("classify cardio").unwrap_err().contains("missing style"));
        assert!(parse_request("classify cardio seq").unwrap_err().contains("missing features"));
        assert!(parse_request("classify cardio seq 0.5 x").unwrap_err().contains("bad feature"));
        assert!(parse_request("classify mars seq 0.5").unwrap_err().contains("unknown profile"));
    }

    #[test]
    fn non_finite_features_are_rejected() {
        for tok in ["NaN", "nan", "inf", "-inf", "infinity", "-Infinity"] {
            let line = format!("classify cardio seq 0.5 {tok}");
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains("non-finite"), "{tok} must be rejected, got {err:?}");
        }
        // Finite edge values still parse.
        let req = parse_request("classify cardio seq 0 1 1e-300").unwrap();
        assert!(matches!(req, Request::Classify { ref features, .. } if features.len() == 3));
    }
}
