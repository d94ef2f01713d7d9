//! The experiment harness CLI.
//!
//! ```text
//! cargo run -p tsb-bench --release --bin experiments             # all experiments, full scale
//! cargo run -p tsb-bench --release --bin experiments -- e3 e7    # selected experiments
//! cargo run -p tsb-bench --bin experiments -- --scale small all  # quick smoke run
//! ```

use tsb_bench::experiments::{is_experiment, run_all, run_experiment, ALL_EXPERIMENTS};
use tsb_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().map(String::as_str) {
                Some("small") => scale = Scale::Small,
                Some("full") => scale = Scale::Full,
                Some("tiny") => scale = Scale::Tiny,
                other => {
                    eprintln!("unknown scale {other:?}; expected small|full|tiny");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => requested.push(other.to_string()),
        }
    }

    // Reject a typo before spending minutes on the ids in front of it.
    if let Some(id) = requested
        .iter()
        .find(|id| *id != "all" && !is_experiment(id))
    {
        eprintln!("unknown experiment '{id}'; known: {ALL_EXPERIMENTS:?} (or 'all')");
        std::process::exit(2);
    }

    println!("TSB-tree experiment harness (Lomet & Salzberg, SIGMOD 1989)");
    println!("scale: {scale:?}");

    let tables = if requested.is_empty() || requested.iter().any(|r| r == "all") {
        run_all(scale)
    } else {
        let run = |id: &String| run_experiment(id, scale).expect("validated above");
        requested.iter().flat_map(run).collect()
    };
    for table in tables {
        println!("{table}");
    }
}

fn print_usage() {
    println!("usage: experiments [--scale small|full|tiny] [e1 e2 ... | all]");
    println!("experiments: {ALL_EXPERIMENTS:?}");
}
