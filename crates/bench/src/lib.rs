//! Li & Lee's evaluation (§5.3, §6, §7, App. B), regenerated as one
//! table of figures.
//!
//! Each entry of [`FIGURES`] computes one table or figure at a [`Scale`]
//! and returns a [`Figure`]: its labelled rows, and the paper's claims
//! about them as predicates over those rows. The `paper` bin prints a
//! figure (`paper <name>`) or evaluates every claim (`paper --check`);
//! `tests/paper.rs` at the workspace root holds the analytic claims.
//! Absolute speeds depend on the host, so a timed claim (Figs. 11–13) is
//! a ratio of two speeds measured in one window, never a number.
//!
//! Numbers about the *system* around the codes (store, cache, wire) come
//! from `benchmark/run.sh`, not from this crate.

mod analytic;
mod figure;
mod speed;

pub use figure::{Claim, Figure, Scale, Verdict};

use analytic::{
    fig09, fig10, fig14, fig15, fig17, fig18, fig19a, fig19b, mc, table2, table3, table4,
};
use speed::{fig11, fig12, fig13};
use stair::{Config, MultXorCounts};
use stair_code::{CodeError, ErasureCode};
use stair_gf::{Field, Gf16, Gf8};
use stair_sd::SdCode;

/// One entry of the figure table.
pub struct Entry {
    /// What `paper <name>` takes.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// Computes the figure.
    pub run: fn(Scale) -> Figure,
}

/// Every table and figure of the paper's evaluation, in paper order.
pub const FIGURES: &[Entry] = &[
    Entry {
        name: "table2",
        artifact: "Table 2: upstairs decoding of the running example",
        run: table2,
    },
    Entry {
        name: "table3",
        artifact: "Table 3: downstairs encoding of the running example",
        run: table3,
    },
    Entry {
        name: "fig09",
        artifact: "Fig. 9: Mult_XORs of the three encoding methods",
        run: fig09,
    },
    Entry {
        name: "fig10",
        artifact: "Fig. 10: devices saved",
        run: fig10,
    },
    Entry {
        name: "fig11",
        artifact: "Fig. 11: encoding speed, STAIR vs SD (timed)",
        run: fig11,
    },
    Entry {
        name: "fig12",
        artifact: "Fig. 12: encoding speed vs stripe size (timed)",
        run: fig12,
    },
    Entry {
        name: "fig13",
        artifact: "Fig. 13: worst-case decoding speed (timed)",
        run: fig13,
    },
    Entry {
        name: "fig14",
        artifact: "Fig. 14: update penalty of STAIR codes",
        run: fig14,
    },
    Entry {
        name: "fig15",
        artifact: "Fig. 15: update penalty, STAIR vs SD vs RS",
        run: fig15,
    },
    Entry {
        name: "table4",
        artifact: "Table 4: arrays N_arr for 10 PiB (Eq. 7)",
        run: table4,
    },
    Entry {
        name: "fig17",
        artifact: "Fig. 17: MTTDL, independent sector failures",
        run: fig17,
    },
    Entry {
        name: "fig18",
        artifact: "Fig. 18: MTTDL, correlated sector failures",
        run: fig18,
    },
    Entry {
        name: "fig19a",
        artifact: "Fig. 19(a): burst-length CDFs",
        run: fig19a,
    },
    Entry {
        name: "fig19b",
        artifact: "Fig. 19(b): MTTDL vs s, e = (s) vs (1, s−1)",
        run: fig19b,
    },
    Entry {
        name: "mc",
        artifact: "App. B: Monte-Carlo cross-check of P_str",
        run: mc,
    },
];

/// The figure table's entry called `name`.
pub fn figure(name: &str) -> Option<&'static Entry> {
    FIGURES.iter().find(|e| e.name == name)
}

/// All non-decreasing partitions of `s` (the candidate `e` vectors for a
/// given total number of parity sectors).
pub fn partitions(s: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(remaining: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining == 0 {
            let mut e = cur.clone();
            e.reverse(); // non-decreasing order
            out.push(e);
            return;
        }
        for next in (1..=remaining.min(max)).rev() {
            cur.push(next);
            rec(remaining - next, next, cur, out);
            cur.pop();
        }
    }
    rec(s, s, &mut cur, &mut out);
    out
}

/// The feasible `e` vectors for `(n, r, m, s)`.
pub fn feasible_es(n: usize, r: usize, m: usize, s: usize) -> Vec<Vec<usize>> {
    partitions(s)
        .into_iter()
        .filter(|e| Config::new(n, r, m, e).is_ok())
        .collect()
}

/// The paper's conservative choice for speed comparisons (§6.2.1): among
/// all feasible `e` for a given `s`, the one whose *best* encoding method
/// is the most expensive (worst-case configuration).
pub fn worst_case_e(n: usize, r: usize, m: usize, s: usize) -> Option<Vec<usize>> {
    feasible_es(n, r, m, s).into_iter().max_by_key(|e| {
        let cfg = Config::new(n, r, m, e).expect("filtered to feasible");
        let c = MultXorCounts::analytic(&cfg);
        c.upstairs.min(c.downstairs)
    })
}

/// The field width an SD code over an `n × r` stripe needs: 8 when
/// `r·n ≤ 255`, else 16 (§6.2.1's "smallest feasible w").
pub fn sd_width(n: usize, r: usize) -> usize {
    if r * n < Gf8::ORDER {
        8
    } else {
        16
    }
}

/// An SD code over the field [`sd_width`] picks.
///
/// # Errors
///
/// As [`SdCode::new`].
pub fn sd_code(n: usize, r: usize, m: usize, s: usize) -> Result<Box<dyn ErasureCode>, CodeError> {
    if sd_width(n, r) == 8 {
        Ok(Box::new(SdCode::<Gf8>::new(n, r, m, s)?))
    } else {
        Ok(Box::new(SdCode::<Gf16>::new(n, r, m, s)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_of_4_match_figure_9() {
        let p = partitions(4);
        assert_eq!(p.len(), 5);
        assert!(p.contains(&vec![4]));
        assert!(p.contains(&vec![1, 3]));
        assert!(p.contains(&vec![2, 2]));
        assert!(p.contains(&vec![1, 1, 2]));
        assert!(p.contains(&vec![1, 1, 1, 1]));
        for e in &p {
            assert!(
                e.windows(2).all(|w| w[0] <= w[1]),
                "{e:?} must be non-decreasing"
            );
        }
    }

    #[test]
    fn worst_case_e_is_feasible_and_maximal() {
        let e = worst_case_e(16, 16, 2, 4).unwrap();
        assert!(Config::new(16, 16, 2, &e).is_ok());
    }
}
