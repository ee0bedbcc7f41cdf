//! Writing a command's output to standard output.

use std::io::{self, Write};

/// Writes `text` to the locked standard output and flushes it.
///
/// A reader that closed early (`bicord-bench --help | head -2`) ends the
/// output, not the program: the broken pipe is ignored and the process
/// keeps the exit status its run decides. Any other write error is
/// reported on stderr and exits with status 1.
pub fn print(text: &str) {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: writing standard output: {e}");
            std::process::exit(1);
        }
    }
}
