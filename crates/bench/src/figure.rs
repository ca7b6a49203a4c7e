//! One figure: its labelled rows, printed by one renderer, and the
//! paper's claims about it as predicates over those rows.

use std::fmt::{self, Write as _};

/// How large a figure runs. Every figure takes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// What `paper <name>` prints: 8 MB stripes (the paper uses 32),
    /// stripes up to 128 MB in Fig. 12, 3 timed runs per probe, 10⁶
    /// Monte-Carlo trials.
    Full,
    /// What `paper --check` and the tests run: 1 MB stripes, Fig. 12
    /// up to 512 KB, 5 timed runs per probe, 20 000 Monte-Carlo trials.
    Check,
}

impl Scale {
    /// Stripe size in bytes for the speed sweeps of Figs. 11 and 13.
    pub fn stripe_bytes(self) -> usize {
        match self {
            Scale::Full => 8 << 20,
            Scale::Check => 1 << 20,
        }
    }

    /// The largest stripe Fig. 12 sweeps to.
    pub fn max_stripe_bytes(self) -> usize {
        match self {
            Scale::Full => 128 << 20,
            Scale::Check => 1 << 20,
        }
    }

    /// Timed runs per speed probe, each right after an untimed run of it.
    pub fn reps(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Check => 5,
        }
    }

    /// Monte-Carlo trials per row of the App. B cross-check.
    pub fn trials(self) -> u64 {
        match self {
            Scale::Full => 1_000_000,
            Scale::Check => 20_000,
        }
    }
}

/// How a column prints its values.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fmt {
    /// `{}`: integers and short decimals as written (`4994`, `0.005`).
    Plain,
    /// `{:.d}`.
    Fixed(usize),
    /// `{:.de}` (`7.937e1`).
    Sci(usize),
}

impl Fmt {
    fn show(self, v: f64) -> String {
        match self {
            Fmt::Plain => format!("{v}"),
            Fmt::Fixed(d) => format!("{v:.d$}"),
            Fmt::Sci(d) => format!("{v:.d$e}"),
        }
    }
}

/// One table of a figure: a caption, named columns and labelled rows. A
/// missing value (no construction at those parameters) prints as `-`.
pub(crate) struct Table {
    /// Printed above the header; may be empty.
    pub(crate) caption: String,
    key: String,
    columns: Vec<(String, Fmt)>,
    rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Table {
    /// An empty table whose label column is headed `key`.
    pub(crate) fn new<S: Into<String>>(
        caption: impl Into<String>,
        key: &str,
        columns: impl IntoIterator<Item = (S, Fmt)>,
    ) -> Self {
        Table {
            caption: caption.into(),
            key: key.to_string(),
            columns: columns.into_iter().map(|(c, f)| (c.into(), f)).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; `values` follow the column order.
    pub(crate) fn push(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        debug_assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.into(), values));
    }

    /// The row labels, in order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(label, _)| label.as_str())
    }

    /// The value at `label`, `column`, if the row has one.
    pub(crate) fn get(&self, label: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|(name, _)| name == column)?;
        let (_, values) = self.rows.iter().find(|(l, _)| l == label)?;
        values[c]
    }

    /// As [`Table::get`], but a missing value is an error naming it.
    pub(crate) fn at(&self, label: &str, column: &str) -> Result<f64, String> {
        self.get(label, column).ok_or_else(|| {
            format!(
                "{}: no value at row `{label}`, column `{column}`",
                self.caption
            )
        })
    }

    fn render(&self, out: &mut String) {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(_, values)| {
                values
                    .iter()
                    .zip(&self.columns)
                    .map(|(v, (_, fmt))| v.map_or_else(|| "-".to_string(), |v| fmt.show(v)))
                    .collect()
            })
            .collect();
        let key_w = self
            .labels()
            .map(str::len)
            .chain([self.key.len()])
            .max()
            .unwrap_or(0);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, (name, _))| {
                cells
                    .iter()
                    .map(|row| row[c].len())
                    .chain([name.chars().count()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        if !self.caption.is_empty() {
            let _ = writeln!(out, "{}", self.caption);
        }
        let mut line = format!("{:<key_w$}", self.key);
        for ((name, _), w) in self.columns.iter().zip(&widths) {
            let _ = write!(line, "  {name:>w$}");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        for ((label, _), row) in self.rows.iter().zip(&cells) {
            let mut line = format!("{label:<key_w$}");
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "  {cell:>w$}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
}

/// What a claim's predicate returns: what it measured, on success or
/// failure.
pub type Outcome = Result<String, String>;

/// A sentence from the paper (or an amended target), and the predicate
/// over the figure's rows that decides it.
pub struct Claim {
    /// The claim, as printed.
    pub says: String,
    /// The ROADMAP item (or the larger scale) the claim waits on. A
    /// pending claim is evaluated and printed, but does not fail.
    pub pending: Option<String>,
    holds: Box<dyn Fn(&Figure) -> Outcome>,
}

impl Claim {
    /// A claim decided by `holds`.
    pub(crate) fn new(
        says: impl Into<String>,
        holds: impl Fn(&Figure) -> Outcome + 'static,
    ) -> Self {
        Claim {
            says: says.into(),
            pending: None,
            holds: Box::new(holds),
        }
    }

    /// Marks the claim as waiting on `item`.
    #[must_use]
    pub(crate) fn pending(mut self, item: impl Into<String>) -> Self {
        self.pending = Some(item.into());
        self
    }
}

/// A table or figure of the paper, regenerated.
pub struct Figure {
    /// Printed first (a title line, or a whole pre-rendered schedule).
    pub(crate) head: String,
    /// The figure's rows.
    pub(crate) tables: Vec<Table>,
    /// Printed last: what the paper says, and measured remarks.
    pub(crate) notes: Vec<String>,
    /// The paper's claims about the rows.
    pub(crate) claims: Vec<Claim>,
}

impl Figure {
    /// A figure titled `head`, with no rows yet.
    pub(crate) fn new(head: impl Into<String>) -> Self {
        Figure {
            head: head.into(),
            tables: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Adds a claim.
    #[must_use]
    pub(crate) fn claim(mut self, claim: Claim) -> Self {
        self.claims.push(claim);
        self
    }

    /// The table whose caption starts with `caption`.
    pub(crate) fn table(&self, caption: &str) -> Result<&Table, String> {
        self.tables
            .iter()
            .find(|t| t.caption.starts_with(caption))
            .ok_or_else(|| format!("no table captioned `{caption}`"))
    }

    /// The figure as `paper <name>` prints it.
    pub fn render(&self) -> String {
        let mut out = self.head.clone();
        for table in &self.tables {
            out.push('\n');
            table.render(&mut out);
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                let _ = writeln!(out, "{note}");
            }
        }
        out
    }

    /// Every claim, judged over the figure's rows, in order.
    pub fn verdicts(&self) -> Vec<Verdict<'_>> {
        self.claims
            .iter()
            .map(|claim| Verdict {
                claim,
                outcome: (claim.holds)(self),
            })
            .collect()
    }

    /// Panics naming every claim that is not pending and does not hold.
    pub fn assert_claims(&self) {
        let failed: Vec<String> = self
            .verdicts()
            .iter()
            .filter(|v| v.fails())
            .map(Verdict::to_string)
            .collect();
        assert!(
            failed.is_empty(),
            "claims that do not hold:\n{}",
            failed.join("\n")
        );
    }
}

/// A claim and what its predicate found.
pub struct Verdict<'a> {
    /// The claim judged.
    pub claim: &'a Claim,
    /// What the predicate measured, on success or failure.
    pub outcome: Outcome,
}

impl Verdict<'_> {
    /// The claim is not pending and does not hold.
    pub fn fails(&self) -> bool {
        self.claim.pending.is_none() && self.outcome.is_err()
    }
}

/// `holds`, `FAILS` or `pending (item)`, the claim, and what was measured.
impl fmt::Display for Verdict<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Ok(detail) | Err(detail)) = &self.outcome;
        let word = match (&self.claim.pending, self.outcome.is_ok()) {
            (Some(item), _) => format!("pending ({item})"),
            (None, true) => "holds".to_string(),
            (None, false) => "FAILS".to_string(),
        };
        write!(f, "  {word:<8} {} — {detail}", self.claim.says)
    }
}

/// `Ok(())` when `cond` holds, else the error `what()` describes.
pub(crate) fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// The geometric mean of `xs` (1 when empty).
pub(crate) fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
