//! The `repro` usage and error text name every experiment that
//! `ExperimentId::parse` accepts.

use ps_sim::experiments::ExperimentId;
use std::process::Command;

fn repro(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(arg)
        .output()
        .expect("repro runs")
}

#[test]
fn help_and_unknown_experiment_list_every_experiment() {
    let help = repro("--help");
    assert!(help.status.success());
    let unknown = repro("no-such-figure");
    assert_eq!(unknown.status.code(), Some(2));
    let help = String::from_utf8(help.stdout).unwrap();
    let error = String::from_utf8(unknown.stderr).unwrap();
    let lists = |text: &str, name: &str| {
        text.split(|c: char| c.is_whitespace() || c == '[')
            .any(|word| word == name)
    };
    for id in ExperimentId::ALL {
        assert!(
            lists(&help, id.name()),
            "--help omits {}: {help}",
            id.name()
        );
        assert!(
            lists(&error, id.name()),
            "error omits {}: {error}",
            id.name()
        );
    }
}
