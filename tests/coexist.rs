//! One path from parameters to a `SimConfig`: the `bicord` CLI and a
//! one-cell `coexist` sweep with the same flags and seed run the same
//! simulation, and the CLI rejects a time span that would wrap.

use std::process::{Command, Output};

use bicord::sim::obs::TraceFile;
use bicord::sweep::{ScenarioRegistry, SweepSpec};

fn bicord(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_bicord");
    Command::new(bin).args(args).output().expect("bicord runs")
}

#[test]
fn cli_and_one_cell_sweep_run_the_same_simulation_in_every_mode() {
    let dir = std::env::temp_dir().join(format!("bicord-coexist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for mode in ["bicord", "ecc-20", "ecc-30", "ecc-40", "unprotected"] {
        let trace = dir.join(format!("{mode}.jsonl"));
        let flags = "--location D --seed 1000 --seconds 4 --extra-node B:3:400 --mode";
        let mut args: Vec<&str> = flags.split(' ').collect();
        args.extend([mode, "--trace", trace.to_str().unwrap()]);
        let out = bicord(&args);
        assert!(out.status.success(), "{mode}: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();

        let spec = SweepSpec::parse(&format!(
            r#"{{"scenario": "coexist", "seed": 1000, "params": {{"mode": "{mode}",
                "location": "D", "seconds": 4, "extra_nodes": "B:3:400"}}}}"#
        ));
        let registry = ScenarioRegistry::builtin();
        let cell = registry.resolve(&spec.unwrap()).unwrap().expand().remove(0);
        let row = registry.run_cell("coexist", &cell).unwrap();
        let m = |name: &str| row.metric(name).unwrap();

        let mut want = vec![
            format!("{}/{} delivered", m("delivered"), m("generated")),
            format!("({:.1}% PDR)", m("pdr") * 100.0),
            format!("{} signaling rounds", m("signaling_rounds")),
            format!("{} reservations", m("reservations")),
        ];
        if m("mean_delay_ms").is_finite() {
            want.push(format!("mean {:.1} ms", m("mean_delay_ms")));
        }
        for line in want {
            assert!(text.contains(&line), "{mode}: no '{line}' in\n{text}");
        }
        // The trace's summary trailer counts every dispatched event by kind.
        let summary = TraceFile::read(&trace).unwrap().summary.unwrap();
        let events: u64 = summary.dequeues.values().sum();
        assert_eq!(events as f64, m("events"), "{mode}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_invalid_spans_and_frames_naming_the_parameter() {
    // 18446744073710 s × 10^6 overflows a u64 of µs; unchecked, it wraps
    // to 448,384 µs.
    for (flag, value, name) in [
        ("--seconds", "18446744073710", "seconds"),
        ("--fault-profile", "churn-ms=1.9", "churn-ms"),
        ("--bytes", "5000", "at most 127 B"),
    ] {
        let out = bicord(&[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error: ") && stderr.contains(name),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty() && !stderr.contains("running"),
            "{flag} {value} ran anyway"
        );
    }
}
