//! Self-tests of the benchmark, run at a tiny instruction scale so
//! they finish in seconds: the metric set and units, the output check
//! and seed handling.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::bench::{run, Options, Workload};
use perfbench::catalog::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::report::RunReport;

/// Large enough a divisor that a trial runs a few thousand instructions.
const TINY_SCALE: u64 = 50_000;

fn options(workload: Workload, seed: u64, trace: bool, test: &str) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Some(TINY_SCALE),
        expected: None,
        state_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "selftest-{test}-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

fn run_ok(opts: &Options) -> RunReport {
    let report = run(opts, Instant::now()).expect("the benchmark runs");
    assert!(
        report.correct,
        "{} output checks fail",
        opts.workload.name()
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

fn assert_metric_set(report: &RunReport, defs: &[MetricDef]) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(got, want, "every metric once, in order, with its unit");
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    let line = report.json_line();
    for d in defs {
        assert_eq!(line.matches(&format!("\"{}\": {{", d.name)).count(), 1);
    }
}

#[test]
fn every_metric_is_printed_once_per_workload_with_a_unit() {
    for w in Workload::ALL {
        let plain = run_ok(&options(w, 3, false, "set"));
        assert_metric_set(&plain, &END_TO_END);
        for name in ["refs_per_s", "setup_s", "sim_slowdown"] {
            assert!(plain.get(name).unwrap() > 0.0, "{name} is never 0");
        }
        assert_metric_set(&run_ok(&options(w, 3, true, "set")), &PER_LAYER);
    }
}

#[test]
fn a_perturbed_digest_fails_the_output_check() {
    for w in [Workload::User4k, Workload::PaperSweep] {
        let mut opts = options(w, 11, false, "perturb");
        let digests = run_ok(&opts).digests;
        opts.expected = Some(digests.clone());
        run_ok(&opts);
        opts.expected = Some(digests.iter().map(|d| d ^ 1).collect());
        let report = run(&opts, Instant::now()).expect("the benchmark runs");
        assert!(!report.correct);
        assert!(report.failed > 0 && report.failed <= report.attempted);
    }
}

#[test]
fn another_seed_changes_the_digest_but_not_the_metric_set() {
    for w in [Workload::User64k, Workload::PaperSweep] {
        let a = run_ok(&options(w, 1, false, "seed"));
        let b = run_ok(&options(w, 2, false, "seed"));
        assert_ne!(a.digests, b.digests);
        assert_eq!(a.digests.len(), b.digests.len());
        let names = |r: &RunReport| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        // The same seed reproduces its digest exactly.
        assert_eq!(
            run_ok(&options(w, 1, false, "seed-again")).digests,
            a.digests
        );
    }
}

/// The string values of every `"key": "value"` pair, in file order.
fn values_of(doc: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    doc.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &doc[i + pat.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let defs: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    names.extend(defs.iter().map(|d| d.name.to_string()));
    assert_eq!(values_of(&doc, "name"), names);
    let units: Vec<String> = defs.iter().map(|d| d.unit.to_string()).collect();
    assert_eq!(values_of(&doc, "unit"), units);
    let better: Vec<String> = defs.iter().map(|d| d.better.to_string()).collect();
    assert_eq!(values_of(&doc, "better"), better);
}
