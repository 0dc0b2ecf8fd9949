//! Single-file HTML report assembly.
//!
//! `repro all` leaves a directory of CSVs and SVGs; this module folds
//! them into one self-contained `report.html` (tables rendered inline,
//! SVGs embedded) so the whole reproduction can be reviewed in a browser
//! or attached to a paper artifact submission.

use std::fmt::Write as _;
use std::path::Path;

use crate::Table;

/// Escapes the five XML-special characters.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&#39;")
}

/// Renders a set of tables (and optional inline SVG documents) into a
/// standalone HTML page.
pub fn render_report(title: &str, tables: &[Table], svgs: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{}</title><style>\
         body{{font-family:system-ui,sans-serif;margin:2rem auto;max-width:70rem;padding:0 1rem}}\
         table{{border-collapse:collapse;margin:1rem 0}}\
         th,td{{border:1px solid #ccc;padding:0.3rem 0.7rem;text-align:right}}\
         th{{background:#f0f3f8}}caption{{font-weight:600;text-align:left;padding:0.3rem 0}}\
         figure{{margin:1.5rem 0}}figcaption{{font-weight:600}}\
         </style></head><body>",
        escape(title)
    );
    let _ = write!(out, "<h1>{}</h1>", escape(title));
    for t in tables {
        let _ = write!(out, "<table><caption>{}</caption><tr>", escape(&t.title));
        for h in &t.headers {
            let _ = write!(out, "<th>{}</th>", escape(h));
        }
        out.push_str("</tr>");
        for row in &t.rows {
            out.push_str("<tr>");
            for v in row {
                let cell = if v.fract() == 0.0 && v.abs() < 1e12 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.3}")
                };
                let _ = write!(out, "<td>{cell}</td>");
            }
            out.push_str("</tr>");
        }
        out.push_str("</table>");
    }
    for (name, svg) in svgs {
        let _ = write!(
            out,
            "<figure><figcaption>{}</figcaption>{}</figure>",
            escape(name),
            svg // already-valid SVG markup, embedded verbatim
        );
    }
    out.push_str("</body></html>");
    out
}

/// Builds the report from every `*.csv` and `*.svg` in `dir` (sorted by
/// name) and writes `dir/report.html`, returning its path.
///
/// CSVs are expected in the [`Table::to_csv`] layout (one header row).
///
/// # Errors
///
/// Propagates I/O errors; malformed CSVs are skipped.
pub fn write_report_from_dir(dir: &Path, title: &str) -> std::io::Result<std::path::PathBuf> {
    let mut tables = Vec::new();
    let mut svgs = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
            continue;
        };
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unnamed")
            .to_owned();
        match ext {
            "csv" => {
                let text = std::fs::read_to_string(&path)?;
                if let Some(t) = table_from_csv(&stem, &text) {
                    tables.push(t);
                }
            }
            "svg" => {
                svgs.push((stem, std::fs::read_to_string(&path)?));
            }
            _ => {}
        }
    }
    let html = render_report(title, &tables, &svgs);
    let out = dir.join("report.html");
    std::fs::write(&out, html)?;
    Ok(out)
}

/// Parses a [`Table::to_csv`]-layout CSV; `None` when malformed.
fn table_from_csv(title: &str, text: &str) -> Option<Table> {
    let mut lines = text.lines();
    let headers: Vec<&str> = lines.next()?.split(',').collect();
    let mut t = Table::new(title, &headers);
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let row: Option<Vec<f64>> = line.split(',').map(|v| v.trim().parse().ok()).collect();
        let row = row?;
        if row.len() != t.headers.len() {
            return None;
        }
        t.push_row(&row);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(&[1.0, 2.5]);
        t
    }

    #[test]
    fn renders_tables_and_svgs() {
        let html = render_report(
            "Report <1>",
            &[sample_table()],
            &[(
                "pic".into(),
                "<svg xmlns='http://www.w3.org/2000/svg'></svg>".into(),
            )],
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Report &lt;1&gt;")); // escaped title
        assert!(html.contains("<th>x</th>"));
        assert!(html.contains("<td>2.500</td>"));
        assert!(html.contains("<svg"));
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_table();
        let parsed = table_from_csv("demo", &t.to_csv()).unwrap();
        assert_eq!(parsed.headers, t.headers);
        assert_eq!(parsed.rows, t.rows);
        assert!(table_from_csv("bad", "a,b\n1\n").is_none());
        assert!(table_from_csv("bad", "a,b\n1,x\n").is_none());
    }

    #[test]
    fn report_from_dir() {
        let dir = std::env::temp_dir().join("bc_html_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        sample_table().save_csv(&dir).unwrap();
        std::fs::write(
            dir.join("fig.svg"),
            "<svg xmlns='http://www.w3.org/2000/svg'/>",
        )
        .unwrap();
        let out = write_report_from_dir(&dir, "T").unwrap();
        let html = std::fs::read_to_string(out).unwrap();
        assert!(html.contains("demo"));
        assert!(html.contains("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
