//! Correctness accounting: every reply is compared byte for byte with the
//! in-process answer for the same line, and classified.
//!
//! A deliberately invalid line is expected to get a typed error reply; that reply,
//! when it matches, is a success.  Failures are missing replies, byte mismatches,
//! overload (503) replies and refused connections.

/// What a generated line should get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A regular answer.
    Answer,
    /// A typed error line (the line is invalid on purpose).
    TypedError,
}

/// How one reply turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Answered,
    ExpectedError,
    Missing,
    Mismatch,
    Overload,
    Refused,
}

impl Outcome {
    pub fn is_failure(self) -> bool {
        !matches!(self, Outcome::Answered | Outcome::ExpectedError)
    }
}

/// Classifies the reply `got` (without its newline; `None` when it never came)
/// against the in-process reply `expected`.
pub fn classify(expect: Expect, expected: &[u8], got: Option<&[u8]>) -> Outcome {
    match got {
        None => Outcome::Missing,
        Some(line) if line == expected => match expect {
            Expect::Answer => Outcome::Answered,
            Expect::TypedError => Outcome::ExpectedError,
        },
        Some(line) if is_overload(line) => Outcome::Overload,
        Some(_) => Outcome::Mismatch,
    }
}

/// Whether a reply is the server's typed 503 overload line.
fn is_overload(line: &[u8]) -> bool {
    line.windows(10).any(|w| w == b"\"code\":503")
}

/// Running counts of attempted and failed lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub expected_errors: u64,
    pub missing: u64,
    pub mismatched: u64,
    pub overloaded: u64,
    pub refused: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Answered => {}
            Outcome::ExpectedError => self.expected_errors += 1,
            Outcome::Missing => self.missing += 1,
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Overload => self.overloaded += 1,
            Outcome::Refused => self.refused += 1,
        }
        if outcome.is_failure() {
            self.failed += 1;
        }
    }

    /// Records `count` outcomes of one kind (e.g. every line of a refused session).
    pub fn record_n(&mut self, outcome: Outcome, count: u64) {
        for _ in 0..count {
            self.record(outcome);
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANSWER: &[u8] = br#"{"kind":"best-policy","id":1}"#;
    const ERROR: &[u8] = br#"{"error":"unknown cell `x`","id":2}"#;
    const OVERLOAD: &[u8] =
        br#"{"error":"overloaded: in-flight budget exhausted (max 1); retry later","code":503,"id":null}"#;

    #[test]
    fn matching_replies_succeed_including_expected_errors() {
        assert_eq!(
            classify(Expect::Answer, ANSWER, Some(ANSWER)),
            Outcome::Answered
        );
        assert_eq!(
            classify(Expect::TypedError, ERROR, Some(ERROR)),
            Outcome::ExpectedError
        );
    }

    #[test]
    fn missing_mismatched_and_overloaded_replies_fail() {
        assert_eq!(classify(Expect::Answer, ANSWER, None), Outcome::Missing);
        assert_eq!(classify(Expect::TypedError, ERROR, None), Outcome::Missing);
        assert_eq!(
            classify(Expect::Answer, ANSWER, Some(ERROR)),
            Outcome::Mismatch
        );
        // An error reply that differs from the in-process one is a mismatch, even
        // when an error was expected.
        assert_eq!(
            classify(
                Expect::TypedError,
                ERROR,
                Some(br#"{"error":"other","id":2}"#)
            ),
            Outcome::Mismatch
        );
        assert_eq!(
            classify(Expect::Answer, ANSWER, Some(OVERLOAD)),
            Outcome::Overload
        );
        assert_eq!(
            classify(Expect::TypedError, ERROR, Some(OVERLOAD)),
            Outcome::Overload
        );
    }

    #[test]
    fn failed_ratio_counts_expected_errors_as_successes() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_ratio(), 0.0);
        tally.record_n(Outcome::Answered, 6);
        tally.record_n(Outcome::ExpectedError, 2);
        assert_eq!(tally.failed_ratio(), 0.0);
        tally.record(Outcome::Overload);
        tally.record(Outcome::Missing);
        tally.record_n(Outcome::Refused, 2);
        assert_eq!(tally.attempted, 12);
        assert_eq!(tally.failed, 4);
        assert_eq!(tally.expected_errors, 2);
        assert_eq!(tally.failed_ratio(), 4.0 / 12.0);
    }
}
