//! The command line of `c1pd` and `load_driver`, claimed flag by flag.
//!
//! An argument no read claims is one the program does not know, and
//! [`Flags::finish`] rejects it. Reading a flag is what declares it, so
//! the accepted set cannot drift from the set a program uses. Every
//! command-line fault — an unknown, repeated or stray argument, a value
//! flag given no value, a non-numeric number — exits 2 through
//! [`Flags::usage`] before the program binds, connects or spawns
//! anything.

/// One program's command line.
pub struct Flags {
    prog: &'static str,
    args: Vec<String>,
    claimed: Vec<bool>,
}

impl Flags {
    /// The arguments of `prog` (without the program path).
    pub fn new(prog: &'static str, args: Vec<String>) -> Flags {
        let claimed = vec![false; args.len()];
        Flags { prog, args, claimed }
    }

    /// The value of `name`, if given; exits 2 if it has none.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let i = self.args.iter().position(|a| a == name)?;
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.claimed[i] = true;
                self.claimed[i + 1] = true;
                Some(v.clone())
            }
            _ => self.usage(&format!("{name} needs a value")),
        }
    }

    /// The value of `name`; exits 2 if it is missing.
    pub fn required(&mut self, name: &str, what: &str) -> String {
        self.value(name).unwrap_or_else(|| self.usage(&format!("{name} {what} is required")))
    }

    /// The number given to `name`, or `default`; exits 2 if it is not one.
    pub fn num(&mut self, name: &str, default: u64) -> u64 {
        self.value(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| self.usage(&format!("{name} takes a number, got {v:?}")))
        })
    }

    /// Whether the switch `name` is given.
    pub fn switch(&mut self, name: &str) -> bool {
        let at = self.args.iter().position(|a| a == name);
        at.map(|i| self.claimed[i] = true).is_some()
    }

    /// Rejects the first argument no read claimed.
    pub fn finish(self) {
        if let Some(i) = self.claimed.iter().position(|&c| !c) {
            self.usage(&format!("unknown, repeated or stray argument {:?}", self.args[i]));
        }
    }

    /// Prints `prog: msg` to stderr and exits 2.
    pub fn usage(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.prog);
        std::process::exit(2);
    }
}
