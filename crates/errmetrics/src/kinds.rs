use std::fmt;
use std::str::FromStr;

/// The statistical error metric to compute.
///
/// The AccALS paper evaluates under ER, NMED, and MRED; the remaining
/// metrics are provided because the framework is metric-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Error rate: the fraction of patterns where any output bit is wrong.
    Er,
    /// Mean error distance: `mean |approx - golden|` over patterns.
    Med,
    /// Normalized mean error distance: MED divided by `2^m - 1` for `m`
    /// outputs.
    Nmed,
    /// Mean relative error distance: `mean |approx - golden| / max(golden, 1)`.
    Mred,
    /// Mean squared error of the output values.
    Mse,
    /// Worst-case error distance: `max |approx - golden|` over the sample.
    Wce,
}

impl MetricKind {
    /// Whether the metric interprets outputs as a binary number (all
    /// metrics except ER).
    pub fn is_arithmetic(self) -> bool {
        !matches!(self, MetricKind::Er)
    }

    /// The widest output word an arithmetic metric decodes (values are
    /// `u128`); ER has no limit.
    pub const MAX_ARITH_OUTPUTS: usize = 128;

    /// All supported metric kinds.
    pub const ALL: [MetricKind; 6] = [
        MetricKind::Er,
        MetricKind::Med,
        MetricKind::Nmed,
        MetricKind::Mred,
        MetricKind::Mse,
        MetricKind::Wce,
    ];
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricKind::Er => "ER",
            MetricKind::Med => "MED",
            MetricKind::Nmed => "NMED",
            MetricKind::Mred => "MRED",
            MetricKind::Mse => "MSE",
            MetricKind::Wce => "WCE",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an unknown metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMetricError(pub String);

impl fmt::Display for ParseMetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown error metric `{}`", self.0)
    }
}

impl std::error::Error for ParseMetricError {}

impl FromStr for MetricKind {
    type Err = ParseMetricError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "er" => Ok(MetricKind::Er),
            "med" => Ok(MetricKind::Med),
            "nmed" => Ok(MetricKind::Nmed),
            "mred" => Ok(MetricKind::Mred),
            "mse" => Ok(MetricKind::Mse),
            "wce" => Ok(MetricKind::Wce),
            other => Err(ParseMetricError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        for kind in MetricKind::ALL {
            assert_eq!(kind.to_string().parse::<MetricKind>().unwrap(), kind);
        }
        assert!("abc".parse::<MetricKind>().is_err());
    }

    #[test]
    fn arithmetic_classification() {
        assert!(!MetricKind::Er.is_arithmetic());
        assert!(MetricKind::Nmed.is_arithmetic());
        assert!(MetricKind::Mred.is_arithmetic());
    }
}
