//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). They share a tiny dependency-free
//! command-line parser ([`Cli`]) and the table/CSV output helpers from
//! [`mcs_sim::output`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use mcs_sim::output::{render_table, write_csv, TableRow};

/// Common command-line options for the experiment binaries.
///
/// ```text
/// --seed N          RNG seed (default 42)
/// --csv PATH        also write the rows as CSV
/// --out PATH        where a recorded bench writes its JSON (default: its
///                   BENCH_*.json)
/// --samples N       Monte-Carlo validation samples (default 10000)
/// --neighbours N    neighbouring profiles for privacy runs (default 5)
/// --budget-secs S   per-price time budget for exact ILP solves (default 5)
/// --no-optimal      skip the exact optimal baseline
/// --full            run the full (slow) variant where applicable
/// --quick           shrink the workload (scaled-down settings)
/// ```
///
/// The figure and table binaries ([`Cli::parse`]) take every flag but
/// `--out`; the recorded benches that write a `BENCH_*.json`
/// ([`Cli::parse_recorded`]) take `--seed`, `--out` and `--quick`. Any
/// other flag is refused with the usage text.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// RNG seed for instance generation and sampling.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Where a recorded bench writes its JSON; `None` leaves the bin's
    /// `BENCH_*.json`.
    pub out: Option<PathBuf>,
    /// Monte-Carlo sample count where sampling is used.
    pub samples: usize,
    /// Number of neighbouring profiles in privacy experiments.
    pub neighbours: usize,
    /// Per-price ILP budget in seconds.
    pub budget_secs: u64,
    /// Skip the exact optimal computation.
    pub no_optimal: bool,
    /// Run the full (slow) variant.
    pub full: bool,
    /// Run a scaled-down variant for smoke testing.
    pub quick: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 42,
            csv: None,
            out: None,
            samples: 10_000,
            neighbours: 5,
            budget_secs: 5,
            no_optimal: false,
            full: false,
            quick: false,
        }
    }
}

/// The usage of the figure and table binaries: the flags [`Cli::parse`]
/// takes.
const FIGURE_FLAGS: &str = "[--seed N] [--csv PATH] [--samples N] [--neighbours N] \
                                [--budget-secs S] [--no-optimal] [--full] [--quick]";

/// The usage of the recorded benches: the flags [`Cli::parse_recorded`]
/// takes.
const RECORDED_FLAGS: &str = "[--seed N] [--out PATH] [--quick]";

impl Cli {
    /// Parses `std::env::args` against the figure flags, exiting with usage
    /// text on error or `--help`.
    pub fn parse() -> Cli {
        Cli::parse_or_exit(FIGURE_FLAGS)
    }

    /// Parses `std::env::args` against the recorded-bench flags like
    /// [`Cli::parse`]. Returns the options and the path the bench writes
    /// its JSON to: `--out`, else `default_out`.
    pub fn parse_recorded(default_out: &str) -> (Cli, PathBuf) {
        let cli = Cli::parse_or_exit(RECORDED_FLAGS);
        let out = cli.out.clone().unwrap_or_else(|| default_out.into());
        (cli, out)
    }

    fn parse_or_exit(flags: &str) -> Cli {
        Cli::parse_from(flags, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            eprintln!("usage: {flags}");
            exit(2);
        })
    }

    /// Parses an explicit argument list, taking only the flags the usage
    /// text `flags` names (testable core of [`Cli::parse`] and
    /// [`Cli::parse_recorded`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for other flags, missing values,
    /// or unparsable numbers.
    fn parse_from<I, S>(flags: &str, args: I) -> Result<Cli, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cli = Cli::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let mut named = flags.split('[').map(|f| f.split([' ', ']']).next());
            if !named.any(|flag| flag == Some(arg.as_str())) {
                return Err(match arg.as_str() {
                    "--help" | "-h" => "help requested".into(),
                    other => format!("unknown flag `{other}`"),
                });
            }
            match arg.as_str() {
                "--seed" => cli.seed = next_value(&mut it, "--seed")?,
                "--samples" => cli.samples = next_value(&mut it, "--samples")?,
                "--neighbours" => {
                    cli.neighbours = next_value(&mut it, "--neighbours")?;
                }
                "--budget-secs" => {
                    cli.budget_secs = next_value(&mut it, "--budget-secs")?;
                }
                "--csv" => {
                    cli.csv = Some(PathBuf::from(it.next().ok_or("--csv needs a path")?));
                }
                "--out" => {
                    cli.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
                }
                "--no-optimal" => cli.no_optimal = true,
                "--full" => cli.full = true,
                "--quick" => cli.quick = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(cli)
    }

    /// The per-price ILP budget as a [`Duration`].
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.budget_secs)
    }
}

fn next_value<I, T>(it: &mut I, flag: &str) -> Result<T, String>
where
    I: Iterator<Item = String>,
    T: std::str::FromStr,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

/// Prints rows as a table and, when requested, writes them to CSV.
pub fn emit<T: TableRow>(title: &str, rows: &[T], cli: &Cli) {
    println!("# {title}");
    println!("{}", render_table(rows));
    if let Some(path) = &cli.csv {
        match write_csv(path, rows) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("failed to write csv: {e}"),
        }
    }
}

/// The measured tree, as `git describe --always --dirty` names it, for
/// the `commit` field of a recorded bench run; `"unknown"` outside a git
/// checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the measuring machine offers this process
/// (`std::thread::available_parallelism`), for the `cores` field of a
/// recorded bench run.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds an inclusive integer range with a step, e.g. the paper's
/// x-axes (`80..=140` step 4).
pub fn axis(from: usize, to: usize, step: usize) -> Vec<usize> {
    assert!(step > 0, "step must be positive");
    (from..=to).step_by(step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cli = Cli::parse_from(FIGURE_FLAGS, Vec::<String>::new()).unwrap();
        assert_eq!(cli, Cli::default());
    }

    #[test]
    fn parses_flags() {
        let cli = Cli::parse_from(
            FIGURE_FLAGS,
            [
                "--seed",
                "7",
                "--csv",
                "/tmp/x.csv",
                "--samples",
                "100",
                "--no-optimal",
                "--full",
            ],
        )
        .unwrap();
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.samples, 100);
        assert_eq!(cli.csv.as_deref(), Some(std::path::Path::new("/tmp/x.csv")));
        assert!(cli.no_optimal);
        assert!(cli.full);
        assert!(!cli.quick);
        assert_eq!(cli.out, None);
        assert!(Cli::parse_from(FIGURE_FLAGS, ["--out", "/tmp/b.json"]).is_err());
    }

    #[test]
    fn parses_the_recorded_bench_flags() {
        let args = ["--quick", "--out", "/tmp/b.json", "--seed", "3"];
        let cli = Cli::parse_from(RECORDED_FLAGS, args).unwrap();
        assert_eq!(
            cli.out.as_deref(),
            Some(std::path::Path::new("/tmp/b.json"))
        );
        assert_eq!((cli.seed, cli.quick), (3, true));
        assert!(Cli::parse_from(RECORDED_FLAGS, ["--out"]).is_err());
        for flag in [
            "--csv",
            "--samples",
            "--neighbours",
            "--budget-secs",
            "--no-optimal",
            "--full",
        ] {
            assert!(
                Cli::parse_from(RECORDED_FLAGS, [flag, "1"]).is_err(),
                "a recorded bench refuses {flag}"
            );
            assert!(FIGURE_FLAGS.contains(&format!("[{flag}")));
        }
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(Cli::parse_from(FIGURE_FLAGS, ["--bogus"]).is_err());
        assert!(Cli::parse_from(FIGURE_FLAGS, ["--seed"]).is_err());
        assert!(Cli::parse_from(FIGURE_FLAGS, ["--seed", "abc"]).is_err());
    }

    #[test]
    fn axis_ranges() {
        assert_eq!(axis(80, 140, 20), vec![80, 100, 120, 140]);
        assert_eq!(axis(5, 5, 1), vec![5]);
    }
}
