//! The one command-line flag parser: `butterfly` and `bfly-bench` each
//! declare their subcommands' flags in a `(subcommand, [(flag, takes_value)])`
//! table and parse through [`parse_flags`], so a typo is an error naming the
//! valid set in both binaries, never a silently ignored option.

use std::collections::HashMap;

/// Parsed `--flag value` pairs by flag name (without the `--`); a flag that
/// takes no value maps to `"true"`.
pub type Flags = HashMap<String, String>;

/// Parse `args` (everything after the subcommand) against `command`'s row
/// of `table`. An unknown subcommand, an undeclared flag, a positional
/// argument or a missing value is an error naming what would have been
/// valid.
pub fn parse_flags(
    table: &[(&str, &[(&str, bool)])],
    command: &str,
    args: &[String],
) -> Result<Flags, String> {
    let allowed = table
        .iter()
        .find(|(cmd, _)| *cmd == command)
        .map(|(_, flags)| *flags)
        .ok_or_else(|| {
            let commands: Vec<&str> = table.iter().map(|(c, _)| *c).collect();
            format!(
                "unknown command {command:?} (valid: {})",
                commands.join(", ")
            )
        })?;
    let mut flags = Flags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {arg:?}"));
        };
        let Some(&(_, takes_value)) = allowed.iter().find(|(n, _)| *n == name) else {
            let valid: Vec<String> = allowed.iter().map(|(n, _)| format!("--{n}")).collect();
            return Err(format!(
                "unknown flag --{name} for {command} (valid: {})",
                valid.join(", ")
            ));
        };
        if !takes_value {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}
