//! Core time-series data model.
//!
//! The paper (Definitions 1–3) works exclusively with *regular* time series:
//! a start timestamp, a constant sampling interval, and a list of values.
//! [`RegularTimeSeries`] is the central type of the workspace.

use std::fmt;

/// A single observation: a Unix timestamp in seconds and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// Unix timestamp in seconds.
    pub timestamp: i64,
    /// Observed value.
    pub value: f64,
}

/// Errors produced when constructing or manipulating series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// The series has no data points.
    Empty,
    /// The gap between points at the given index differs from the first gap.
    Irregular(usize),
    /// A zero or negative sampling interval was supplied.
    InvalidInterval(i64),
    /// Requested segment bounds are out of range or inverted.
    BadRange { start: usize, end: usize, len: usize },
    /// Two series that must be aligned have different lengths.
    LengthMismatch { left: usize, right: usize },
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::Empty => write!(f, "time series is empty"),
            SeriesError::Irregular(i) => {
                write!(f, "sampling interval changes at index {i}")
            }
            SeriesError::InvalidInterval(iv) => {
                write!(f, "invalid sampling interval {iv} (must be > 0)")
            }
            SeriesError::BadRange { start, end, len } => {
                write!(f, "segment range {start}..{end} is invalid for length {len}")
            }
            SeriesError::LengthMismatch { left, right } => {
                write!(f, "series lengths differ: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// A regular time series (Definition 2): `values[i]` was observed at
/// `start + i * interval` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct RegularTimeSeries {
    start: i64,
    interval: i64,
    values: Vec<f64>,
}

impl RegularTimeSeries {
    /// Creates a regular series. `interval` is in seconds and must be
    /// positive; `values` must be non-empty.
    pub fn new(start: i64, interval: i64, values: Vec<f64>) -> Result<Self, SeriesError> {
        if values.is_empty() {
            return Err(SeriesError::Empty);
        }
        if interval <= 0 {
            return Err(SeriesError::InvalidInterval(interval));
        }
        Ok(RegularTimeSeries { start, interval, values })
    }

    /// First timestamp (seconds).
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Sampling interval (seconds).
    pub fn interval(&self) -> i64 {
        self.interval
    }

    /// Observed values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty (never true for a constructed series).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of the `i`-th point.
    pub(crate) fn timestamp(&self, i: usize) -> i64 {
        self.start + self.interval * i as i64
    }

    /// A segment `x_s(i, j)` (Definition 3): points with indices in
    /// `start..end` (half-open). The segment keeps correct absolute
    /// timestamps.
    pub fn segment(&self, start: usize, end: usize) -> Result<RegularTimeSeries, SeriesError> {
        if start >= end || end > self.values.len() {
            return Err(SeriesError::BadRange { start, end, len: self.values.len() });
        }
        RegularTimeSeries::new(
            self.timestamp(start),
            self.interval,
            self.values[start..end].to_vec(),
        )
    }
}

/// Iterator-based read access to a regular series.
///
/// The store's chunk-backed views and the legacy in-memory
/// [`RegularTimeSeries`] both implement this, so windowing and evaluation
/// code can read either without materialising a full `Vec<f64>` first.
/// Implementations must yield exactly [`SeriesSource::len`] values in time
/// order, with the `i`-th value observed at `start + i * interval`.
pub trait SeriesSource {
    /// Number of points.
    fn len(&self) -> usize;

    /// Whether the source has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First timestamp (seconds).
    fn start(&self) -> i64;

    /// Sampling interval (seconds).
    fn interval(&self) -> i64;

    /// Streams the values in time order.
    fn iter_values(&self) -> Box<dyn Iterator<Item = f64> + '_>;

    /// Streams `(timestamp, value)` pairs in time order.
    fn iter_points(&self) -> Box<dyn Iterator<Item = DataPoint> + '_> {
        let start = self.start();
        let interval = self.interval();
        Box::new(
            self.iter_values()
                .enumerate()
                .map(move |(i, v)| DataPoint { timestamp: start + interval * i as i64, value: v }),
        )
    }

    /// Collects the source into an owned in-memory series. Reading code
    /// should prefer the iterators; this exists for the boundary into
    /// slice-based APIs (codecs, model fitting).
    fn materialize(&self) -> Result<RegularTimeSeries, SeriesError> {
        RegularTimeSeries::new(self.start(), self.interval(), self.iter_values().collect())
    }
}

impl SeriesSource for RegularTimeSeries {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn start(&self) -> i64 {
        self.start
    }

    fn interval(&self) -> i64 {
        self.interval
    }

    fn iter_values(&self) -> Box<dyn Iterator<Item = f64> + '_> {
        Box::new(self.values.iter().copied())
    }
}

/// A multivariate regular time series: several aligned channels sharing one
/// time axis, plus the index of the paper's target variable.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    /// Channel names, parallel to `channels`.
    names: Vec<String>,
    /// Aligned channels; all share start/interval/length.
    channels: Vec<RegularTimeSeries>,
    /// Index of the forecasting target channel.
    target: usize,
}

impl MultiSeries {
    /// Builds a multivariate series from aligned channels.
    pub fn new(
        names: Vec<String>,
        channels: Vec<RegularTimeSeries>,
        target: usize,
    ) -> Result<Self, SeriesError> {
        if channels.is_empty() {
            return Err(SeriesError::Empty);
        }
        let (s, iv, n) = (channels[0].start(), channels[0].interval(), channels[0].len());
        for c in &channels[1..] {
            if c.len() != n {
                return Err(SeriesError::LengthMismatch { left: n, right: c.len() });
            }
            if c.start() != s || c.interval() != iv {
                return Err(SeriesError::Irregular(0));
            }
        }
        if names.len() != channels.len() {
            return Err(SeriesError::LengthMismatch { left: names.len(), right: channels.len() });
        }
        if target >= channels.len() {
            return Err(SeriesError::BadRange {
                start: target,
                end: target + 1,
                len: channels.len(),
            });
        }
        Ok(MultiSeries { names, channels, target })
    }

    /// Wraps a single channel as a univariate `MultiSeries`.
    pub fn univariate(name: &str, series: RegularTimeSeries) -> Self {
        MultiSeries { names: vec![name.to_string()], channels: vec![series], target: 0 }
    }

    /// Channel count.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Points per channel.
    pub fn len(&self) -> usize {
        self.channels[0].len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Channel names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// All channels.
    pub fn channels(&self) -> &[RegularTimeSeries] {
        &self.channels
    }

    /// Index of the target channel.
    pub fn target_index(&self) -> usize {
        self.target
    }

    /// The target channel.
    pub fn target(&self) -> &RegularTimeSeries {
        &self.channels[self.target]
    }

    /// Applies a fallible per-channel transformation (e.g. compress +
    /// decompress), keeping names and target. Stops at the first channel
    /// error instead of transforming the remaining channels, since a
    /// failure anywhere poisons the whole result.
    pub fn try_map_channels<F, E>(&self, mut f: F) -> Result<MultiSeries, E>
    where
        F: FnMut(&RegularTimeSeries) -> Result<RegularTimeSeries, E>,
        E: From<SeriesError>,
    {
        let mut channels = Vec::with_capacity(self.channels.len());
        for c in &self.channels {
            channels.push(f(c)?);
        }
        Ok(MultiSeries::new(self.names.clone(), channels, self.target)?)
    }

    /// A row-slice over all channels: indices `start..end`.
    pub(crate) fn slice(&self, start: usize, end: usize) -> Result<MultiSeries, SeriesError> {
        let channels =
            self.channels.iter().map(|c| c.segment(start, end)).collect::<Result<Vec<_>, _>>()?;
        MultiSeries::new(self.names.clone(), channels, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_regular() {
        let r = RegularTimeSeries::new(42, 60, vec![7.0]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.start(), 42);
    }

    #[test]
    fn regular_rejects_empty_and_bad_interval() {
        assert_eq!(RegularTimeSeries::new(0, 60, vec![]).unwrap_err(), SeriesError::Empty);
        assert_eq!(
            RegularTimeSeries::new(0, 0, vec![1.0]).unwrap_err(),
            SeriesError::InvalidInterval(0)
        );
        assert_eq!(
            RegularTimeSeries::new(0, -5, vec![1.0]).unwrap_err(),
            SeriesError::InvalidInterval(-5)
        );
    }

    #[test]
    fn segment_preserves_timestamps() {
        let r = RegularTimeSeries::new(1000, 15, (0..10).map(f64::from).collect()).unwrap();
        let s = r.segment(3, 7).unwrap();
        assert_eq!(s.start(), 1045);
        assert_eq!(s.values(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(r.segment(5, 5).is_err());
        assert!(r.segment(5, 11).is_err());
    }

    #[test]
    fn iter_yields_timestamped_points() {
        let r = RegularTimeSeries::new(10, 5, vec![1.0, 2.0, 3.0]).unwrap();
        let collected: Vec<_> = r.iter_points().collect();
        assert_eq!(collected[1], DataPoint { timestamp: 15, value: 2.0 });
        assert_eq!(collected[2].timestamp, r.timestamp(2));
    }

    #[test]
    fn series_source_matches_inherent_accessors() {
        let r = RegularTimeSeries::new(10, 5, vec![1.0, 2.0, 3.0]).unwrap();
        let src: &dyn SeriesSource = &r;
        assert_eq!(src.len(), 3);
        assert_eq!((src.start(), src.interval()), (10, 5));
        assert_eq!(src.iter_values().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0]);
        let points: Vec<DataPoint> = (0..r.len())
            .map(|i| DataPoint { timestamp: r.timestamp(i), value: r.values()[i] })
            .collect();
        assert_eq!(src.iter_points().collect::<Vec<_>>(), points);
        assert_eq!(src.materialize().unwrap(), r);
    }

    #[test]
    fn multiseries_validates_alignment() {
        let a = RegularTimeSeries::new(0, 60, vec![1.0, 2.0]).unwrap();
        let b = RegularTimeSeries::new(0, 60, vec![3.0, 4.0]).unwrap();
        let c = RegularTimeSeries::new(0, 30, vec![3.0, 4.0]).unwrap();
        assert!(MultiSeries::new(vec!["a".into(), "b".into()], vec![a.clone(), b], 1).is_ok());
        assert!(MultiSeries::new(vec!["a".into(), "c".into()], vec![a.clone(), c], 0).is_err());
        assert!(MultiSeries::new(vec!["a".into()], vec![a], 3).is_err());
    }

    #[test]
    fn multiseries_slice_and_map() {
        let a = RegularTimeSeries::new(0, 60, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let m = MultiSeries::univariate("t", a);
        let s = m.slice(1, 3).unwrap();
        assert_eq!(s.target().values(), &[2.0, 3.0]);
        let doubled = m
            .try_map_channels(|c| {
                RegularTimeSeries::new(
                    c.start(),
                    c.interval(),
                    c.values().iter().map(|v| v * 2.0).collect(),
                )
            })
            .unwrap();
        assert_eq!(doubled.target().values(), &[2.0, 4.0, 6.0, 8.0]);
    }
}
