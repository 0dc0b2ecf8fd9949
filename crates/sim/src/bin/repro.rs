//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro <check|fig6|ablations|lifetime|faults|fig10|fig11|fig12|fig13|fig14|fig16|all> [--runs N] [--seed S] [--out DIR]
//! ```
//!
//! Prints each figure's data table and writes a CSV per table into the
//! output directory (default `results/`). `check` runs the reproduction
//! self-check (the paper's published claims) and exits nonzero when one
//! fails to reproduce. Performance is measured by the `benchmark/`
//! package, not here.

use std::path::PathBuf;
use std::process::ExitCode;

use bc_sim::figures::{self, ExpConfig};
use bc_sim::Table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: repro <check|fig6|ablations|lifetime|faults|fig10|fig11|fig12|fig13|fig14|fig16|all> \
                 [--runs N] [--seed S] [--out DIR]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut which: Option<String> = None;
    let mut exp = ExpConfig::default();
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                exp.runs = next_value(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if exp.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--seed" => {
                exp.base_seed = next_value(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(next_value(args, &mut i)?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            name => {
                if which.replace(name.to_owned()).is_some() {
                    return Err("more than one figure named".into());
                }
            }
        }
        i += 1;
    }
    let which = which.ok_or_else(|| "no figure named".to_owned())?;

    if which == "check" {
        eprintln!(">> reproduction self-check ({} runs/point)", exp.runs);
        let results = bc_sim::checks::run_all(&exp);
        let (text, all) = bc_sim::checks::report(&results);
        print!("{text}");
        return if all {
            Ok(())
        } else {
            Err("some claims failed to reproduce".into())
        };
    }

    type Job = (&'static str, fn(&ExpConfig) -> Vec<Table>);
    let jobs: Vec<Job> = vec![
        ("fig6", figures::fig6::tables),
        ("ablations", figures::ablations::tables),
        ("lifetime", bc_sim::lifetime::table),
        ("faults", figures::faults::tables),
        ("fig10", figures::fig10::tables),
        ("fig11", figures::fig11::tables),
        ("fig12", figures::fig12::tables),
        ("fig13", figures::fig13::tables),
        ("fig14", figures::fig14::tables),
        ("fig16", figures::fig16::tables),
    ];
    let selected: Vec<_> = if which == "all" {
        jobs
    } else {
        let job = jobs
            .into_iter()
            .find(|(name, _)| *name == which)
            .ok_or_else(|| format!("unknown figure {which}"))?;
        vec![job]
    };

    for (name, f) in selected {
        eprintln!(
            ">> {name} ({} runs/point, seed {})",
            exp.runs, exp.base_seed
        );
        let started = std::time::Instant::now();
        let tables = f(&exp);
        for t in &tables {
            println!("{t}");
            let path = t
                .save_csv(&out)
                .map_err(|e| format!("saving {}: {e}", t.title))?;
            eprintln!("   wrote {}", path.display());
        }
        if name == "fig10" {
            // Fig. 10 is a picture; emit the SVG renderings too.
            let paths = figures::fig10::save_figures(&exp, &out)
                .map_err(|e| format!("rendering fig10: {e}"))?;
            for p in paths {
                eprintln!("   wrote {}", p.display());
            }
        }
        eprintln!("   {name} done in {:.1?}", started.elapsed());
    }
    if which == "all" {
        let path =
            bc_sim::html::write_report_from_dir(&out, "Bundle Charging — reproduction report")
                .map_err(|e| format!("writing report: {e}"))?;
        eprintln!("   wrote {}", path.display());
    }
    Ok(())
}

fn next_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}
