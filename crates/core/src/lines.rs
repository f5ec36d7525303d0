//! Stdout for the workspace's command-line bins.
//!
//! `println!` panics when stdout closes early (`smoke ... | head -2`, or
//! any reader that exits first): the bin dies with exit code 101 in the
//! middle of its run. A bin prints through [`Lines`] instead. The first
//! failed write ends the printing, not the run, so the bin still writes
//! its report files and exits normally. A closed pipe (the reader went
//! away) is no error; any other failed write makes [`Lines::finish`]
//! return exit code 2.

use std::io::{self, Write};
use std::process::ExitCode;

/// Stdout as a bin prints it: line by line until the first failed write.
pub struct Lines<W: Write> {
    out: W,
    /// `None` while printing; then why it stopped, `Ok` for a closed pipe.
    stopped: Option<io::Result<()>>,
}

impl Lines<io::StdoutLock<'static>> {
    /// The process's stdout.
    pub fn stdout() -> Self {
        Lines::new(io::stdout().lock())
    }
}

impl<W: Write> Lines<W> {
    /// Print to `out`.
    pub fn new(out: W) -> Self {
        Lines { out, stopped: None }
    }

    /// Print `line` and a newline, unless an earlier write failed.
    pub fn print(&mut self, line: &str) {
        if self.stopped.is_none() {
            if let Err(e) = writeln!(self.out, "{line}") {
                self.stopped = Some(if e.kind() == io::ErrorKind::BrokenPipe { Ok(()) } else { Err(e) });
            }
        }
    }

    /// Exit code 0, or 2 with the reason on stderr when a write failed
    /// for another reason than a closed pipe.
    pub fn finish(self) -> ExitCode {
        match self.stopped {
            Some(Err(e)) => {
                eprintln!("cannot write stdout: {e}");
                ExitCode::from(2)
            }
            _ => ExitCode::SUCCESS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_closed_pipe_ends_the_printing_not_the_run() {
        struct Failing(io::ErrorKind);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut open = Lines::new(Vec::new());
        open.print("a");
        open.print("b\nc");
        assert_eq!(open.out, b"a\nb\nc\n");
        assert_eq!(open.finish(), ExitCode::SUCCESS);
        let mut closed = Lines::new(Failing(io::ErrorKind::BrokenPipe));
        closed.print("a");
        closed.print("b");
        assert!(matches!(closed.stopped, Some(Ok(()))), "a closed pipe is no error");
        assert_eq!(closed.finish(), ExitCode::SUCCESS);
        let mut broken = Lines::new(Failing(io::ErrorKind::PermissionDenied));
        broken.print("a");
        assert!(matches!(broken.stopped, Some(Err(_))), "other write errors are");
        assert_eq!(broken.finish(), ExitCode::from(2));
    }
}
