//! Loading and saving deployments as CSV.
//!
//! Real deployments come from site surveys, not generators; this module
//! round-trips networks through a minimal CSV schema so measured sensor
//! positions can be fed to the planners:
//!
//! ```csv
//! x,y,demand
//! 12.5,3.25,2.0
//! 40.0,77.5,2.0
//! ```
//!
//! The header row is required. The deployment field is taken as the
//! bounding box of the sensors (optionally padded), and the base station
//! defaults to the field's minimum corner.

use std::fmt;
use std::path::Path;

use bc_geom::{Aabb, Point};

use crate::{Network, Sensor, SensorId};

/// Error parsing a deployment CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is empty or missing its header row.
    MissingHeader,
    /// The header is not `x,y,demand`.
    BadHeader(String),
    /// A data row failed to parse.
    BadRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file parsed but contains no sensors.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::MissingHeader => write!(f, "missing header row (expected `x,y,demand`)"),
            CsvError::BadHeader(h) => write!(f, "unexpected header `{h}` (expected `x,y,demand`)"),
            CsvError::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
            CsvError::Empty => write!(f, "no sensors in file"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parses a deployment from CSV text.
///
/// The field is the sensors' bounding box padded by `field_padding_m` on
/// every side; the base station sits at the padded field's minimum
/// corner.
///
/// # Errors
///
/// Any [`CsvError`] variant; parsing stops at the first bad row.
pub fn network_from_csv_str(text: &str, field_padding_m: f64) -> Result<Network, CsvError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            None => return Err(CsvError::MissingHeader),
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break l.trim(),
        }
    };
    let normalized: String = header.replace(' ', "").to_ascii_lowercase();
    if normalized != "x,y,demand" {
        return Err(CsvError::BadHeader(header.to_owned()));
    }
    let mut sensors = Vec::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        let row = raw.trim();
        if row.is_empty() || row.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = row.split(',').map(str::trim).collect();
        if fields.len() != 3 {
            return Err(CsvError::BadRow {
                line,
                reason: format!("expected 3 fields, got {}", fields.len()),
            });
        }
        let parse = |s: &str, name: &str| -> Result<f64, CsvError> {
            s.parse::<f64>().map_err(|e| CsvError::BadRow {
                line,
                reason: format!("bad {name} `{s}`: {e}"),
            })
        };
        let x = parse(fields[0], "x")?;
        let y = parse(fields[1], "y")?;
        let demand = parse(fields[2], "demand")?;
        if !x.is_finite() || !y.is_finite() {
            return Err(CsvError::BadRow {
                line,
                reason: "coordinates must be finite".into(),
            });
        }
        if !demand.is_finite() || demand < 0.0 {
            return Err(CsvError::BadRow {
                line,
                reason: format!("demand must be non-negative, got {demand}"),
            });
        }
        sensors.push(Sensor::new(
            SensorId(sensors.len()),
            Point::new(x, y),
            demand,
        ));
    }
    if sensors.is_empty() {
        return Err(CsvError::Empty);
    }
    let Some(bbox) = Aabb::from_points(sensors.iter().map(|s| s.pos)) else {
        unreachable!("sensors verified non-empty above");
    };
    let pad = field_padding_m.max(0.0);
    let field = Aabb::new(
        Point::new(bbox.min.x - pad, bbox.min.y - pad),
        Point::new(bbox.max.x + pad, bbox.max.y + pad),
    );
    Ok(Network::new(sensors, field, field.min))
}

/// Loads a deployment from a CSV file. See [`network_from_csv_str`].
///
/// # Errors
///
/// Any [`CsvError`] variant.
pub fn network_from_csv(path: &Path, field_padding_m: f64) -> Result<Network, CsvError> {
    let text = std::fs::read_to_string(path)?;
    network_from_csv_str(&text, field_padding_m)
}

/// Serialises a network's sensors to CSV text (the inverse of
/// [`network_from_csv_str`]).
pub fn network_to_csv_string(net: &Network) -> String {
    let mut out = String::from("x,y,demand\n");
    for s in net.sensors() {
        // Bare number, not the Display form: CSV cells must round-trip
        // through `parse::<f64>`.
        out.push_str(&format!("{},{},{}\n", s.pos.x, s.pos.y, s.demand.0));
    }
    out
}

/// Writes a network's sensors to a CSV file.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn network_to_csv(net: &Network, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, network_to_csv_string(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;

    #[test]
    fn round_trip_preserves_sensors() {
        let net = deploy::uniform(25, Aabb::square(100.0), 2.0, 6);
        let csv = network_to_csv_string(&net);
        let back = network_from_csv_str(&csv, 0.0).unwrap();
        assert_eq!(back.len(), 25);
        for i in 0..25 {
            assert!(back.sensor(i).pos.distance(net.sensor(i).pos) < 1e-9);
            assert_eq!(back.sensor(i).demand, net.sensor(i).demand);
        }
    }

    #[test]
    fn parses_whitespace_and_comments() {
        let text = "\n x , y , demand \n1.0, 2.0, 3.0\n# comment\n\n4.5,6.5,0.5\n";
        let net = network_from_csv_str(text, 1.0).unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.sensor(1).demand, bc_units::Joules(0.5));
        // Padding applied to the field.
        assert!(net.field().min.x <= 0.0);
    }

    #[test]
    fn header_errors() {
        assert!(matches!(
            network_from_csv_str("", 0.0),
            Err(CsvError::MissingHeader)
        ));
        assert!(matches!(
            network_from_csv_str("a,b,c\n1,2,3\n", 0.0),
            Err(CsvError::BadHeader(_))
        ));
    }

    #[test]
    fn row_errors_carry_line_numbers() {
        let err = network_from_csv_str("x,y,demand\n1,2,3\nnope,5,6\n", 0.0).unwrap_err();
        match err {
            CsvError::BadRow { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
        let err = network_from_csv_str("x,y,demand\n1,2\n", 0.0).unwrap_err();
        assert!(matches!(err, CsvError::BadRow { line: 2, .. }));
        let err = network_from_csv_str("x,y,demand\n1,2,-1\n", 0.0).unwrap_err();
        assert!(matches!(err, CsvError::BadRow { .. }));
    }

    #[test]
    fn empty_body_rejected() {
        assert!(matches!(
            network_from_csv_str("x,y,demand\n", 0.0),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn file_round_trip() {
        let net = deploy::uniform(5, Aabb::square(50.0), 2.0, 1);
        let path = std::env::temp_dir().join("bc_wsn_io_test.csv");
        network_to_csv(&net, &path).unwrap();
        let back = network_from_csv(&path, 0.0).unwrap();
        assert_eq!(back.len(), 5);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn errors_display() {
        let e = network_from_csv_str("x,y,demand\nbad", 0.0).unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
