//! A reader that closes stdout early (`bicord --help | head -1`) ends
//! the output, not the program: `bicord` and its subcommands exit 0
//! instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

fn status_into_closed_pipe(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    // No reader: every write to the pipe fails with a broken pipe.
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_bicord"))
        .args(args)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::null())
        .status()
        .expect("spawn bicord")
        .code()
}

#[test]
fn help_into_a_closed_pipe_exits_cleanly() {
    for args in [
        &["--help"][..],
        &["sweep", "--help"],
        &["analyze", "--help"],
    ] {
        assert_eq!(status_into_closed_pipe(args), Some(0), "bicord {args:?}");
    }
}
