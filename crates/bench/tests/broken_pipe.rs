//! A reader that closes stdout early (`bicord-bench --help | head -2`)
//! ends the output, not the program: the binary exits 0 instead of
//! panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn help_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    // No reader: every write to the pipe fails with a broken pipe.
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_bicord-bench"))
        .arg("--help")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::null())
        .status()
        .expect("spawn bicord-bench");
    assert_eq!(status.code(), Some(0), "{status}");
}
