//! The repository's benchmark: one binary, three workloads, each run in a
//! fresh process. See `perfbench/README.md` for the workloads, the
//! metrics and the layer map; `perfbench/run.py` builds this binary and
//! is the command `BENCHMARK.json` names.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> [--commit <id>] [--tiny]
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod report;
mod simulated;
mod static_pipeline;
mod trace;

use report::{Kind, Report};
use std::path::PathBuf;
use trace::Tracer;

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    /// Wall seconds the measured phase runs for.
    pub seconds: f64,
    /// Shrinks every workload to a few thousand peers (self-check only).
    pub tiny: bool,
    /// True for the traced run (`--trace 1`).
    pub traced: bool,
    /// Worker threads for every parallel call: the host's core count.
    pub threads: usize,
    /// Scratch directory for frozen images and the trace file.
    pub work: PathBuf,
}

/// The skewed key density of every workload: the paper's Pareto keys.
pub fn pareto() -> sw_keyspace::distribution::TruncatedPareto {
    sw_keyspace::distribution::TruncatedPareto::new(1.5, 0.01).expect("valid Pareto parameters")
}

const WORKLOADS: [&str; 3] = [
    "static-pareto-1m",
    "traffic-zipf-100k",
    "churn-storage-100k",
];

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> --work-dir <dir> [--commit <id>] [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    // A tuning knob in the environment would change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SW_"))
        .collect();
    if !knobs.is_empty() {
        usage(&format!(
            "refusing to run with tuning variables set: {}",
            knobs.join(", ")
        ));
    }

    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut work = None;
    let mut commit = "unknown".to_string();
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" if value == "0" || value == "1" => traced = Some(value == "1"),
            "--work-dir" => work = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced), Some(work)) =
        (workload, seed, seconds, traced, work)
    else {
        usage("missing a required argument");
    };
    report::must("work-dir", std::fs::create_dir_all(&work));
    let ctx = Ctx {
        seed,
        seconds,
        tiny,
        traced,
        threads: sw_graph::par::default_parallelism(),
        work,
    };

    let run_id = format!("{workload}-seed{seed}-pid{}", std::process::id());
    let mut tracer = Tracer::new(traced, run_id);
    let mut report = Report::default();
    match workload.as_str() {
        "static-pareto-1m" => static_pipeline::run(&ctx, &mut tracer, &mut report),
        "traffic-zipf-100k" => {
            simulated::run_serial(&ctx, simulated::World::Traffic, &mut tracer, &mut report)
        }
        "churn-storage-100k" => simulated::run_serial(
            &ctx,
            simulated::World::ChurnStorage,
            &mut tracer,
            &mut report,
        ),
        _ => unreachable!("workload names are validated above"),
    }
    report.one(Kind::EndToEnd, "peak_rss_mb", "MB", report::peak_rss_mb());
    report.check_finite();

    if traced {
        let path = ctx.work.join("trace.json");
        report::must("write-trace", tracer.write_chrome(&path));
    }
    let mut quoted_commit = String::new();
    trace::push_str_json(&mut quoted_commit, &commit);
    let mut quoted_workload = String::new();
    trace::push_str_json(&mut quoted_workload, &workload);
    let stamp = [
        ("workload", quoted_workload),
        ("seed", seed.to_string()),
        ("seconds", trace::json_num(seconds)),
        ("trace", (traced as u8).to_string()),
        ("tiny", tiny.to_string()),
        ("host_cores", ctx.threads.to_string()),
        ("commit", quoted_commit),
    ];
    let kind = if traced { Kind::Layer } else { Kind::EndToEnd };
    println!("{}", report.to_json(kind, &stamp));
}
