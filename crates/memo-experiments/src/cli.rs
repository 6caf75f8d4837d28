//! Shared command-line handling for the workspace's binaries.
//!
//! Before this module an unknown flag was silently ignored, so
//! `table5 --sacle=2` happily ran at default scale. The servers call
//! [`enforce`] first and `memo-experiments` calls [`validate_word`]:
//! `--help`/`-h` prints usage and exits 0, anything unrecognized prints
//! usage to stderr and exits 2 (the conventional usage-error code). The
//! servers then read their flags through the [`Args`] that [`enforce`]
//! returns, which exits 2 the same way on a value that does not parse.

use std::str::FromStr;

/// What to do with a parsed argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// All arguments recognized — run the binary.
    Run,
    /// `--help`/`-h` requested.
    Help,
    /// An argument was not recognized; the text names it.
    Reject(String),
}

/// Classify `args` (without the program name) against `flags`, the
/// binary's accepted flags. A flag spec ending in `=` accepts an inline
/// value (`--entries=8,16`); any other spec must match exactly.
pub fn validate<I: IntoIterator<Item = String>>(flags: &[(&str, &str)], args: I) -> Decision {
    for arg in args {
        if arg == "--help" || arg == "-h" {
            return Decision::Help;
        }
        let known = flags.iter().any(|(spec, _)| {
            if let Some(prefix) = spec.strip_suffix('=') {
                arg.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('='))
            } else {
                arg == *spec
            }
        });
        if !known {
            return Decision::Reject(arg);
        }
    }
    Decision::Run
}

/// Classify a subcommand line (`args` without the program name): the
/// leading word must be one of `words`, each listed with the flags it
/// accepts, and the rest must pass [`validate`] against that word's
/// flags. `--help`/`-h` anywhere wins; a rejection names the missing
/// word, the unknown word, or the word and the flag it does not take.
#[must_use]
pub fn validate_word(words: &[(&str, &[(&str, &str)])], args: &[String]) -> Decision {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Decision::Help;
    }
    let Some(word) = args.first() else {
        return Decision::Reject("missing word".to_string());
    };
    let Some((_, flags)) = words.iter().find(|(w, _)| w == word) else {
        return Decision::Reject(format!("unknown word {word:?}"));
    };
    match validate(flags, args[1..].iter().cloned()) {
        Decision::Reject(arg) => Decision::Reject(format!("{word} does not take {arg:?}")),
        decision => decision,
    }
}

/// Render the usage text for `bin`.
#[must_use]
pub fn usage(bin: &str, about: &str, flags: &[(&str, &str)]) -> String {
    let mut out = format!("{about}\n\nUsage: {bin} [OPTIONS]\n\nOptions:\n");
    for (spec, help) in flags.iter().chain(&[("--help, -h", "print this help and exit")]) {
        let spec = spec.strip_suffix('=').map_or_else(|| spec.to_string(), |p| format!("{p}=<v>"));
        out.push_str(&format!("  {spec:<18} {help}\n"));
    }
    out.push_str(
        "\nEnvironment:\n  MEMO_SCALE=<n>     image downscale divisor (default 4)\n  \
         MEMO_SCI_N=<n>     scientific-kernel problem size (default 32)\n  \
         MEMO_JOBS=<n>      sweep-executor worker count (default: all cores)\n",
    );
    out
}

/// The value `args` give the flag `prefix` (`--workers=`), parsed as
/// `T`: `Ok(None)` when the flag is absent, an error naming the flag and
/// the value when the value does not parse.
fn flag_value<T: FromStr>(args: &[String], prefix: &str) -> Result<Option<T>, String> {
    let Some(raw) = args.iter().find_map(|a| a.strip_prefix(prefix)) else {
        return Ok(None);
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("invalid value {raw:?} for {}", prefix.trim_end_matches('=')))
}

/// A binary's arguments, checked by [`enforce`].
pub struct Args<'a> {
    bin: &'a str,
    about: &'a str,
    flags: &'a [(&'a str, &'a str)],
    args: Vec<String>,
}

impl Args<'_> {
    /// The value of the flag `prefix` (`--workers=`) parsed as `T`, or
    /// `None` when it is absent. A value that does not parse prints
    /// usage to stderr and exits 2.
    #[must_use]
    pub fn value<T: FromStr>(&self, prefix: &str) -> Option<T> {
        flag_value(&self.args, prefix).unwrap_or_else(|why| {
            eprintln!("{}: {why}\n\n{}", self.bin, usage(self.bin, self.about, self.flags));
            std::process::exit(2);
        })
    }

    /// True when the exact flag `flag` (`--cluster`) was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

/// Validate the process arguments, exiting on `--help` (code 0) or on an
/// unknown flag (usage to stderr, code 2), and return them for reading.
/// Call first thing in `main`.
#[must_use]
pub fn enforce<'a>(bin: &'a str, about: &'a str, flags: &'a [(&'a str, &'a str)]) -> Args<'a> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match validate(flags, args.iter().cloned()) {
        Decision::Run => Args { bin, about, flags, args },
        Decision::Help => {
            println!("{}", usage(bin, about, flags));
            std::process::exit(0);
        }
        Decision::Reject(arg) => {
            eprintln!("{bin}: unrecognized argument {arg:?}\n\n{}", usage(bin, about, flags));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_args_run() {
        assert_eq!(validate(&[], strings(&[])), Decision::Run);
    }

    #[test]
    fn help_beats_unknown() {
        assert_eq!(validate(&[], strings(&["--help"])), Decision::Help);
        assert_eq!(validate(&[], strings(&["-h", "--bogus"])), Decision::Help);
    }

    #[test]
    fn unknown_flag_rejected_with_its_spelling() {
        assert_eq!(
            validate(&[("--csv", "")], strings(&["--sacle=2"])),
            Decision::Reject("--sacle=2".to_string())
        );
    }

    #[test]
    fn exact_and_value_flags() {
        let flags = [("--csv", ""), ("--entries=", "")];
        assert_eq!(validate(&flags, strings(&["--csv"])), Decision::Run);
        assert_eq!(validate(&flags, strings(&["--entries=8,16"])), Decision::Run);
        // A value flag still needs its `=`.
        assert_eq!(
            validate(&flags, strings(&["--entries"])),
            Decision::Reject("--entries".to_string())
        );
        // An exact flag does not take a value.
        assert_eq!(
            validate(&flags, strings(&["--csv=yes"])),
            Decision::Reject("--csv=yes".to_string())
        );
    }

    #[test]
    fn words_pick_their_own_flags() {
        let words: [(&str, &[(&str, &str)]); 3] =
            [("fig2", &[("--csv", "")]), ("table5", &[]), ("sweep", &[("--entries=", "")])];
        let check = |args: &[&str]| validate_word(&words, &strings(args));
        assert_eq!(check(&["fig2", "--csv"]), Decision::Run);
        assert_eq!(check(&["sweep", "--entries=8,16"]), Decision::Run);
        assert_eq!(check(&["table5"]), Decision::Run);
        let reject = |why: &str| Decision::Reject(why.to_string());
        assert_eq!(check(&["table5", "--csv"]), reject(r#"table5 does not take "--csv""#));
        assert_eq!(check(&["sweep", "--entries"]), reject(r#"sweep does not take "--entries""#));
        assert_eq!(check(&["table99"]), reject(r#"unknown word "table99""#));
        assert_eq!(check(&["--csv"]), reject(r#"unknown word "--csv""#));
        assert_eq!(check(&[]), reject("missing word"));
        // Help wins over a bad word, a bad flag, or no word at all.
        for args in [&["--help"][..], &["table99", "-h"], &["table5", "--csv", "--help"]] {
            assert_eq!(check(args), Decision::Help, "{args:?}");
        }
    }

    #[test]
    fn flag_values_parse_or_name_the_bad_value() {
        let args = strings(&["--addr=127.0.0.1:0", "--workers=4", "--connections=eight"]);
        assert_eq!(flag_value::<usize>(&args, "--workers="), Ok(Some(4)));
        assert_eq!(flag_value::<String>(&args, "--addr=").unwrap().as_deref(), Some("127.0.0.1:0"));
        assert_eq!(flag_value::<usize>(&args, "--queue-cap="), Ok(None), "absent is not an error");
        assert_eq!(
            flag_value::<usize>(&args, "--connections="),
            Err(r#"invalid value "eight" for --connections"#.to_string())
        );
        let empty = strings(&["--workers="]);
        assert_eq!(
            flag_value::<usize>(&empty, "--workers="),
            Err(r#"invalid value "" for --workers"#.to_string())
        );
        assert!(flag_value::<u64>(&strings(&["--seed=-1"]), "--seed=").is_err());
    }

    #[test]
    fn usage_lists_flags_and_env() {
        let text = usage("table5", "Regenerates Table 5.", &[("--entries=", "sweep sizes")]);
        assert!(text.contains("Usage: table5"));
        assert!(text.contains("--entries=<v>"));
        assert!(text.contains("MEMO_SCALE"));
        assert!(text.contains("--help"));
    }
}
