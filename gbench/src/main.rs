//! gbench: runs the GBooster simulator's benchmark workloads and prints
//! every metric by name with its unit; `gbench compare` judges two saved
//! result files against each metric's bound. See `README.md`.

use std::path::Path;
use std::process::ExitCode;

use gbooster::telemetry::json;
use gbooster_perf::compare::compare;
use gbooster_perf::measure::{self, Options};
use gbooster_perf::metrics;
use gbooster_perf::trace;
use gbooster_perf::workloads::{Workload, CANONICAL_SEED};

const USAGE: &str = "usage:
  gbench [--workload NAME[,NAME...]] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
  gbench compare A.json B.json
workloads: session_g1 session_pool4_lossy fabric_scale fabric_ops (default: all, in this order)
BENCHMARK.json's command is run with --workload, --seed, --seconds and --trace 0|1 appended.";

/// Where run artifacts go, relative to the working directory.
const OUT_DIR: &str = "target/gbench";

struct Args {
    workloads: Vec<Workload>,
    opt: Options,
    traced: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        opt: Options {
            seed: CANONICAL_SEED,
            seconds: measure::DEFAULT_SECONDS,
            quick: false,
        },
        traced: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                out.workloads = value("workload names")?
                    .split(',')
                    .map(|name| Workload::from_name(name).ok_or(format!("unknown workload {name}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                out.opt.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                out.opt.seconds = s;
            }
            "--quick" => out.opt.quick = true,
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                out.traced = true;
                if let Some(v) = args.next_if(|v| v == "0" || v == "1") {
                    out.traced = v == "1";
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    for &w in &args.workloads {
        let result = if args.traced {
            let (result, spans) = measure::trace(w, &args.opt);
            let path = Path::new(OUT_DIR).join(format!("trace_{}.json", w.name()));
            write(&path, &trace::to_json(w.name(), &spans))?;
            result
        } else {
            measure::measure(w, &args.opt)
        };
        print!("{}", result.render());
        println!("{}", result.summary_line(args.traced));
        all_correct &= result.failed == 0;
        results.push(result);
    }
    if !args.traced {
        let text = metrics::results_json(args.opt.seed, args.opt.seconds, &results);
        write(&Path::new(OUT_DIR).join("results.json"), &text)?;
    }
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    for row in compare(&load(a)?, &load(b)?)? {
        println!("{}", row.render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("compare") {
        match (argv.nth(1), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => run_compare(&a, &b).map(|()| true),
            _ => Err("compare takes two results.json paths".into()),
        }
    } else {
        parse(argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
