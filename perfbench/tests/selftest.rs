//! The benchmark's self-test: every workload, at a reduced scale and
//! length, prints exactly the metrics `BENCHMARK.json` names, each with
//! its unit, and a planted report corruption is counted as a failure,
//! both in the reference pass and in a timed pass.

use sortmid_devharness::Json;
use sortmid_perfbench::workload::{check_pass, prepare, PassOutput, Reference};
use sortmid_perfbench::{run, Settings, Workload};

/// Small enough that a debug-profile run of every workload stays short.
const TEST_SCALE: f64 = 0.05;

fn settings(workload: Workload, trace: bool) -> Settings {
    Settings {
        scale: TEST_SCALE,
        ..Settings::new(workload, 3, 0.0, trace)
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, in print order.
fn printed(line: &str) -> Vec<(String, String)> {
    let doc = Json::parse(line).expect("the result line is JSON");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut log = Vec::new();
            let outcome = run(&settings(workload, trace), &mut log).expect("run");
            let line = outcome.to_json();
            assert!(outcome.correct, "{} trace={trace}: {line}", workload.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let mut got = printed(&line);
            let mut want = declared(list);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
        }
    }
}

#[test]
fn a_planted_report_corruption_is_counted_as_failed() {
    for workload in Workload::ALL {
        let mut s = settings(workload, false);
        s.plant_corruption = true;
        let outcome = run(&s, &mut Vec::new()).expect("run");
        assert!(!outcome.correct, "{}", workload.name());
        assert!(outcome.failed >= 1, "{}", workload.name());
    }
}

#[test]
fn a_timed_pass_that_differs_from_the_reference_is_counted_as_failed() {
    for workload in Workload::ALL {
        let p = prepare(workload, TEST_SCALE, 3);
        let mut reference = Reference::check(p.reference_reports(), None, false);
        assert_eq!(reference.failed, 0, "{}", workload.name());
        let out = p.run_pass();
        assert_eq!(
            check_pass(&p, &out, &reference, None).0,
            0,
            "{}: the timed pass matches its reference",
            workload.name()
        );
        match out {
            // One report's digest.
            PassOutput::Reports(_) => reference.digests[0] ^= 1,
            // The first cell of the first row, priced as its own
            // baseline: a 1.00 speedup where 4 processors give more.
            PassOutput::Tables(_) => reference.reports[1] = reference.reports[0].clone(),
        }
        let (failed, _) = check_pass(&p, &out, &reference, None);
        assert!(failed >= 1, "{}: no failure counted", workload.name());
    }
}
