//! The shared CLI exit-code convention.
//!
//! Every workspace binary (`sweep`, `calibrate`, `trace`, `advise`, `figures`,
//! `lint`) renders its outcome through the helpers below instead of ad-hoc
//! `std::process::exit` calls, so the exit-code contract is written down once:
//!
//! * `0` — success;
//! * `1` — the command ran and failed (`error: <message>` on stderr);
//! * `2` — usage error (bad flags, unknown subcommand; usage text on stderr).
//!
//! Returning [`std::process::ExitCode`] from `main` (rather than calling
//! `process::exit` mid-flight) matters here: destructors still run, so metric
//! writers, trace dumps, and profile dumps flush on the error path too.  The
//! `process-exit` lint rule enforces the "no `process::exit` outside `main`"
//! half of this contract statically.
//!
//! The flag helpers [`next_value`] and [`parse`] keep the flag-error wording the
//! same across the hand-rolled argument loops of `advise`, `calibrate` and `trace`.

use std::fmt::Display;
use std::process::ExitCode;

/// The exit code for usage errors (bad flags, unknown subcommands).
pub const EXIT_USAGE: u8 = 2;

/// Renders a command outcome as the process exit code: `Ok` exits `0`; `Err`
/// prints `error: <message>` to stderr and exits `1`.
pub fn exit_outcome(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Reports a usage error: prints `message` (typically the usage text) to stderr
/// and returns exit code [`EXIT_USAGE`].
pub fn usage_error(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(EXIT_USAGE)
}

/// Takes the value following `flag` from an argument iterator.
pub fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses a flag value, naming the flag and the rejected text on failure.
pub fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {flag} value `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_maps_to_standard_codes() {
        assert_eq!(exit_outcome(Ok(())), ExitCode::SUCCESS);
        assert_eq!(exit_outcome(Err("boom".to_string())), ExitCode::FAILURE);
        assert_eq!(usage_error("usage: x"), ExitCode::from(2));
    }
}
