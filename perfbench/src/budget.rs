//! Layer budgets: splitting one operation's measured cost into the
//! parts the traced run attributed to layers, plus what is left.

/// One row of a budget: a part's name and its cost per op (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub part: &'static str,
    pub us_per_op: f64,
}

/// A per-op budget: attributed parts, the measured end-to-end cost,
/// and the unexplained remainder (`total - Σ parts`; negative when the
/// parts over-explain, e.g. replays slower than the live path).
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub title: &'static str,
    pub parts: Vec<Row>,
    pub total_label: &'static str,
    pub total_us: f64,
}

impl Budget {
    /// Builds a budget from its parts and the measured total.
    #[must_use]
    pub fn new(
        title: &'static str,
        parts: Vec<Row>,
        total_label: &'static str,
        total_us: f64,
    ) -> Budget {
        Budget {
            title,
            parts,
            total_label,
            total_us,
        }
    }

    /// Sum of the attributed parts.
    #[must_use]
    pub fn explained_us(&self) -> f64 {
        self.parts.iter().map(|r| r.us_per_op).sum()
    }

    /// `total - explained`.
    #[must_use]
    pub fn remainder_us(&self) -> f64 {
        self.total_us - self.explained_us()
    }

    /// The table the traced run prints.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("layer budget: {}\n", self.title);
        let share = |v: f64| {
            if self.total_us > 0.0 {
                100.0 * v / self.total_us
            } else {
                0.0
            }
        };
        for r in &self.parts {
            s += &format!(
                "  {:<34} {:>10.4} us  {:>6.1} %\n",
                r.part,
                r.us_per_op,
                share(r.us_per_op)
            );
        }
        s += &format!(
            "  {:<34} {:>10.4} us  {:>6.1} %\n",
            "unexplained remainder",
            self.remainder_us(),
            share(self.remainder_us())
        );
        s += &format!("  {:<34} {:>10.4} us\n", self.total_label, self.total_us);
        s
    }
}

/// What is left of a thread's measured time once the replayed layers
/// are subtracted: `measured - Σ replayed`, never below zero (a replay
/// can run slower than the live thread, which batches and stays warm).
#[must_use]
pub fn remainder_of(measured: f64, replayed: &[f64]) -> f64 {
    (measured - replayed.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remainder_is_total_minus_parts() {
        let b = Budget::new(
            "t",
            vec![
                Row {
                    part: "a",
                    us_per_op: 0.25,
                },
                Row {
                    part: "b",
                    us_per_op: 0.5,
                },
            ],
            "total",
            1.0,
        );
        assert_eq!(b.explained_us(), 0.75);
        assert_eq!(b.remainder_us(), 0.25);
        let over = Budget::new("o", b.parts.clone(), "total", 0.5);
        assert_eq!(over.remainder_us(), -0.25);
        let table = b.render();
        assert!(table.contains("unexplained remainder"));
        assert!(table.contains("25.0 %"));
    }

    #[test]
    fn thread_remainder_subtracts_replays_and_clamps() {
        assert_eq!(remainder_of(2.0, &[0.5, 0.25]), 1.25);
        assert_eq!(remainder_of(0.5, &[0.5, 0.25]), 0.0);
        assert_eq!(remainder_of(1.0, &[]), 1.0);
    }
}
