//! Flag parsing for the `experiments` binary.
//!
//! A flag that is given must carry a valid value: `--seed abc`, a flag with
//! no value, or `--days -1` is an error naming the flag and the value, so a
//! typo never silently runs the default instead.

use std::str::FromStr;

/// Seed every seeded subcommand uses when `--seed` is absent.
const DEFAULT_SEED: u64 = 20250;

/// The numeric flags of `experiments`. Count flags are `None` when absent:
/// each subcommand applies its own default (`--days` is 365 for fig6 and
/// 40 for fig8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// `--seed N` (any `u64`).
    pub seed: u64,
    /// `--days N` (positive).
    pub days: Option<usize>,
    /// `--trials N` (positive).
    pub trials: Option<usize>,
    /// `--iters N` (positive).
    pub iters: Option<usize>,
}

impl Flags {
    /// Parse the numeric flags out of the arguments after the program name.
    /// Flags this parser does not know (`--quick`, `--ablate`, ...) are left
    /// to the caller.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        Ok(Flags {
            seed: flag_value(args, "--seed")?.unwrap_or(DEFAULT_SEED),
            days: positive_flag(args, "--days")?,
            trials: positive_flag(args, "--trials")?,
            iters: positive_flag(args, "--iters")?,
        })
    }
}

/// The value after `flag`, parsed as `T`; `Ok(None)` when the flag is absent.
fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let v = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map(Some).map_err(|e| format!("bad {flag} value '{v}': {e}"))
}

fn positive_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match flag_value::<usize>(args, flag)? {
        Some(0) => Err(format!("bad {flag} value '0': must be positive")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::parse(&args)
    }

    #[test]
    fn absent_flags_take_defaults() {
        assert_eq!(
            parse("fig6 --ablate").unwrap(),
            Flags { seed: DEFAULT_SEED, days: None, trials: None, iters: None }
        );
    }

    #[test]
    fn valid_values_parse() {
        let f = parse("all --seed 7 --days 20 --trials 3 --iters 1 --quick").unwrap();
        assert_eq!(f, Flags { seed: 7, days: Some(20), trials: Some(3), iters: Some(1) });
        assert_eq!(parse("fig2 --seed 18446744073709551615").unwrap().seed, u64::MAX);
    }

    #[test]
    fn bad_values_name_the_flag_and_the_value() {
        let e = parse("fig3 --seed abc").unwrap_err();
        assert!(e.contains("--seed") && e.contains("'abc'"), "{e}");
        let e = parse("fig6 --days -1").unwrap_err();
        assert!(e.contains("--days") && e.contains("'-1'"), "{e}");
        let e = parse("table5 --trials 0").unwrap_err();
        assert!(e.contains("--trials") && e.contains("'0'"), "{e}");
        let e = parse("bench-codec --iters 2.5").unwrap_err();
        assert!(e.contains("--iters") && e.contains("'2.5'"), "{e}");
        assert!(parse("fig2 --seed -3").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse("fig6 --days").unwrap_err(), "--days needs a value");
    }
}
