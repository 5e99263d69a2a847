//! CSV import/export so the evaluation can run on the *real* datasets
//! (ETT, Solar, Weather, …) when the user has downloaded them, and so grid
//! results can leave the process for plotting.
//!
//! The format follows the ETT family: a header row, a `date`/timestamp
//! first column (ISO `YYYY-MM-DD HH:MM[:SS]` or integer seconds), and one
//! numeric column per channel. No external CSV dependency — the dialect
//! here (no quoted fields) is what these datasets actually use.

use std::fmt;

use crate::series::{MultiSeries, RegularTimeSeries, SeriesError};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// The file is empty or has no data rows.
    Empty,
    /// A malformed row (line number, message).
    BadRow(usize, String),
    /// A timestamp that could not be parsed.
    BadTimestamp(usize, String),
    /// The named target column is missing.
    MissingColumn(String),
    /// Rows are not equally spaced in time.
    Irregular(usize),
    /// Series construction failed.
    Series(SeriesError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Empty => write!(f, "csv has no data rows"),
            CsvError::BadRow(line, msg) => write!(f, "csv line {line}: {msg}"),
            CsvError::BadTimestamp(line, ts) => {
                write!(f, "csv line {line}: bad timestamp '{ts}'")
            }
            CsvError::MissingColumn(name) => write!(f, "csv missing column '{name}'"),
            CsvError::Irregular(line) => {
                write!(f, "csv line {line}: sampling interval changes")
            }
            CsvError::Series(e) => write!(f, "csv series: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<SeriesError> for CsvError {
    fn from(e: SeriesError) -> Self {
        CsvError::Series(e)
    }
}

/// Parses an ETT-style timestamp: ISO `YYYY-MM-DD HH:MM[:SS]` (treated as
/// UTC) or a plain integer (Unix seconds).
fn parse_timestamp(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Ok(secs) = s.parse::<i64>() {
        return Some(secs);
    }
    // YYYY-MM-DD[ T]HH:MM[:SS]
    let bytes = s.as_bytes();
    if bytes.len() < 16 {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<i64> { s.get(range)?.parse::<i64>().ok() };
    let year = num(0..4)?;
    let month = num(5..7)?;
    let day = num(8..10)?;
    let hour = num(11..13)?;
    let minute = num(14..16)?;
    let second = if bytes.len() >= 19 { num(17..19)? } else { 0 };
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some(days_from_civil(year, month, day) * 86_400 + hour * 3_600 + minute * 60 + second)
}

/// Days since the Unix epoch (Howard Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Parses CSV text into a [`MultiSeries`]. `target` selects the target
/// channel by column name (e.g. `"OT"` for ETT); `None` uses the last
/// column (the ETT convention).
pub fn parse_multiseries(text: &str, target: Option<&str>) -> Result<MultiSeries, CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::Empty)?;
    let names: Vec<String> = header.split(',').skip(1).map(|s| s.trim().to_string()).collect();
    if names.is_empty() {
        return Err(CsvError::BadRow(1, "header needs a timestamp and one value column".into()));
    }
    let mut timestamps: Vec<i64> = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let ts_field = fields
            .next()
            .ok_or_else(|| CsvError::BadRow(idx + 1, "missing timestamp field".into()))?;
        let ts = parse_timestamp(ts_field)
            .ok_or_else(|| CsvError::BadTimestamp(idx + 1, ts_field.to_string()))?;
        timestamps.push(ts);
        for (c, col) in columns.iter_mut().enumerate() {
            let field = fields
                .next()
                .ok_or_else(|| CsvError::BadRow(idx + 1, format!("missing column {}", names[c])))?;
            let v: f64 = field
                .trim()
                .parse()
                .map_err(|_| CsvError::BadRow(idx + 1, format!("bad number '{}'", field.trim())))?;
            col.push(v);
        }
    }
    if timestamps.is_empty() {
        return Err(CsvError::Empty);
    }
    // Regularity check.
    let start = timestamps[0];
    let interval = if timestamps.len() > 1 { timestamps[1] - start } else { 1 };
    if interval <= 0 {
        return Err(CsvError::Irregular(3));
    }
    for (i, w) in timestamps.windows(2).enumerate() {
        if w[1] - w[0] != interval {
            return Err(CsvError::Irregular(i + 3));
        }
    }
    let channels = columns
        .into_iter()
        .map(|values| RegularTimeSeries::new(start, interval, values))
        .collect::<Result<Vec<_>, _>>()?;
    let target_idx = match target {
        Some(name) => names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| CsvError::MissingColumn(name.to_string()))?,
        None => names.len() - 1,
    };
    Ok(MultiSeries::new(names, channels, target_idx)?)
}

/// Serializes a [`MultiSeries`] back to ETT-style CSV (integer-second
/// timestamps).
pub fn to_csv(data: &MultiSeries) -> String {
    let mut out = String::from("date");
    for name in data.names() {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    let target = data.target();
    for i in 0..data.len() {
        out.push_str(&target.timestamp(i).to_string());
        for ch in data.channels() {
            out.push(',');
            out.push_str(&format!("{}", ch.values()[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
date,HUFL,OT
2016-07-01 00:00:00,5.827,30.531
2016-07-01 00:15:00,5.693,30.460
2016-07-01 00:30:00,5.157,30.038
2016-07-01 00:45:00,5.090,27.013
";

    #[test]
    fn parses_ett_style_csv() {
        let m = parse_multiseries(SAMPLE, Some("OT")).unwrap();
        assert_eq!(m.num_channels(), 2);
        assert_eq!(m.len(), 4);
        assert_eq!(m.names(), &["HUFL".to_string(), "OT".to_string()]);
        assert_eq!(m.target_index(), 1);
        assert_eq!(m.target().values()[0], 30.531);
        assert_eq!(m.target().interval(), 900);
    }

    #[test]
    fn default_target_is_last_column() {
        let m = parse_multiseries(SAMPLE, None).unwrap();
        assert_eq!(m.target_index(), 1);
    }

    #[test]
    fn integer_timestamps_accepted() {
        let csv = "ts,v\n100,1.0\n160,2.0\n220,3.0\n";
        let m = parse_multiseries(csv, None).unwrap();
        assert_eq!(m.target().start(), 100);
        assert_eq!(m.target().interval(), 60);
    }

    #[test]
    fn timestamp_parsing() {
        assert_eq!(parse_timestamp("1970-01-01 00:00:00"), Some(0));
        assert_eq!(parse_timestamp("1970-01-02 00:00"), Some(86_400));
        assert_eq!(parse_timestamp("2016-07-01 00:15:00"), Some(1_467_332_100));
        assert_eq!(parse_timestamp("42"), Some(42));
        assert_eq!(parse_timestamp("not-a-date"), None);
        assert_eq!(parse_timestamp("2016-13-01 00:00:00"), None);
    }

    #[test]
    fn errors_reported_with_lines() {
        assert!(matches!(parse_multiseries("", None), Err(CsvError::Empty)));
        assert!(matches!(parse_multiseries("date,v\n", None), Err(CsvError::Empty)));
        let bad_num = "date,v\n0,1.0\n60,oops\n";
        assert!(matches!(parse_multiseries(bad_num, None), Err(CsvError::BadRow(3, _))));
        let bad_ts = "date,v\nxx,1.0\n";
        assert!(matches!(parse_multiseries(bad_ts, None), Err(CsvError::BadTimestamp(2, _))));
        let irregular = "date,v\n0,1.0\n60,2.0\n180,3.0\n";
        assert!(matches!(parse_multiseries(irregular, None), Err(CsvError::Irregular(_))));
        assert!(matches!(parse_multiseries(SAMPLE, Some("nope")), Err(CsvError::MissingColumn(_))));
    }

    #[test]
    fn roundtrip_through_to_csv() {
        let m = parse_multiseries(SAMPLE, Some("OT")).unwrap();
        let text = to_csv(&m);
        let back = parse_multiseries(&text, Some("OT")).unwrap();
        assert_eq!(back.len(), m.len());
        assert_eq!(back.target().values(), m.target().values());
        assert_eq!(back.target().start(), m.target().start());
    }

    #[test]
    fn civil_days_reference_values() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }
}
