//! YCSB core workloads A–F.
//!
//! | workload | mix | distribution |
//! |---|---|---|
//! | A | 50% read / 50% update | zipfian |
//! | B | 95% read / 5% update | zipfian |
//! | C | 100% read | zipfian |
//! | D | 95% read / 5% insert | latest |
//! | E | 95% scan / 5% insert | zipfian (scan len ~ U\[1,100\]) |
//! | F | 50% read / 50% read-modify-write | zipfian |

use bypassd_sim::rng::{KeyDist, Rng};

/// The six core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50/50 read/update, zipfian.
    A,
    /// 95/5 read/update, zipfian.
    B,
    /// Read-only, zipfian.
    C,
    /// 95/5 read/insert, latest.
    D,
    /// 95/5 scan/insert, zipfian.
    E,
    /// 50/50 read/RMW, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub fn all() -> [YcsbWorkload; 6] {
        [
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
            YcsbWorkload::E,
            YcsbWorkload::F,
        ]
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "YCSB A",
            YcsbWorkload::B => "YCSB B",
            YcsbWorkload::C => "YCSB C",
            YcsbWorkload::D => "YCSB D",
            YcsbWorkload::E => "YCSB E",
            YcsbWorkload::F => "YCSB F",
        }
    }
}

impl std::fmt::Display for YcsbWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One generated operation (keys are indexes into the store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point read.
    Read(u64),
    /// Overwrite an existing key.
    Update(u64),
    /// Insert a new key (the generator tracks growth).
    Insert(u64),
    /// Range scan: start key + item count.
    Scan(u64, usize),
    /// Read-modify-write.
    Rmw(u64),
}

/// Stateful operation generator.
#[derive(Debug)]
pub struct YcsbGen {
    workload: YcsbWorkload,
    dist: KeyDist,
    rng: Rng,
    /// Keys currently live (inserts grow this).
    pub n: u64,
    /// Cap on growth (engines preallocate this many slots).
    pub max_n: u64,
}

impl YcsbGen {
    /// Creates a generator over `initial` keys, allowing inserts up to
    /// `max` keys, with the given seed.
    ///
    /// # Panics
    /// Panics if `initial == 0` or `max < initial`.
    pub fn new(workload: YcsbWorkload, initial: u64, max: u64, seed: u64) -> Self {
        assert!(initial > 0 && max >= initial);
        let dist = match workload {
            YcsbWorkload::D => KeyDist::latest(initial),
            _ => KeyDist::zipfian(initial),
        };
        YcsbGen {
            workload,
            dist,
            rng: Rng::new(seed),
            n: initial,
            max_n: max,
        }
    }

    fn key(&mut self) -> u64 {
        self.dist.next_key(&mut self.rng, self.n)
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let p = self.rng.gen_f64();
        match self.workload {
            YcsbWorkload::A => {
                let k = self.key();
                if p < 0.5 {
                    YcsbOp::Read(k)
                } else {
                    YcsbOp::Update(k)
                }
            }
            YcsbWorkload::B => {
                let k = self.key();
                if p < 0.95 {
                    YcsbOp::Read(k)
                } else {
                    YcsbOp::Update(k)
                }
            }
            YcsbWorkload::C => YcsbOp::Read(self.key()),
            YcsbWorkload::D => {
                if p < 0.95 || self.n >= self.max_n {
                    YcsbOp::Read(self.key())
                } else {
                    let k = self.n;
                    self.n += 1;
                    YcsbOp::Insert(k)
                }
            }
            YcsbWorkload::E => {
                if p < 0.95 || self.n >= self.max_n {
                    let len = 1 + self.rng.gen_range(100) as usize;
                    YcsbOp::Scan(self.key(), len)
                } else {
                    let k = self.n;
                    self.n += 1;
                    YcsbOp::Insert(k)
                }
            }
            YcsbWorkload::F => {
                let k = self.key();
                if p < 0.5 {
                    YcsbOp::Read(k)
                } else {
                    YcsbOp::Rmw(k)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(w: YcsbWorkload, ops: usize) -> (usize, usize, usize, usize, usize) {
        let mut g = YcsbGen::new(w, 10_000, 20_000, 1);
        let (mut r, mut u, mut i, mut s, mut m) = (0, 0, 0, 0, 0);
        for _ in 0..ops {
            match g.next_op() {
                YcsbOp::Read(_) => r += 1,
                YcsbOp::Update(_) => u += 1,
                YcsbOp::Insert(_) => i += 1,
                YcsbOp::Scan(..) => s += 1,
                YcsbOp::Rmw(_) => m += 1,
            }
        }
        (r, u, i, s, m)
    }

    #[test]
    fn workload_mixes_roughly_match() {
        let n = 10_000;
        let (r, u, ..) = histogram(YcsbWorkload::A, n);
        assert!((4_500..5_500).contains(&r), "A reads = {r}");
        assert!((4_500..5_500).contains(&u));

        let (r, u, ..) = histogram(YcsbWorkload::B, n);
        assert!(r > 9_200 && u > 200, "B = {r}/{u}");

        let (r, u, i, s, m) = histogram(YcsbWorkload::C, n);
        assert_eq!((r, u, i, s, m), (n, 0, 0, 0, 0));

        let (r, _, i, ..) = histogram(YcsbWorkload::D, n);
        assert!(r > 9_200 && i > 200);

        let (_, _, i, s, _) = histogram(YcsbWorkload::E, n);
        assert!(s > 9_200 && i > 200);

        let (r, _, _, _, m) = histogram(YcsbWorkload::F, n);
        assert!((4_500..5_500).contains(&r));
        assert!((4_500..5_500).contains(&m));
    }

    #[test]
    fn inserts_grow_key_space_up_to_cap() {
        let mut g = YcsbGen::new(YcsbWorkload::D, 100, 120, 3);
        let mut inserted = Vec::new();
        for _ in 0..2_000 {
            if let YcsbOp::Insert(k) = g.next_op() {
                inserted.push(k);
            }
        }
        assert!(!inserted.is_empty());
        assert_eq!(g.n, 120, "growth must stop at max_n");
        // Inserted keys are sequential fresh keys.
        for w in inserted.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn keys_within_bounds() {
        for w in YcsbWorkload::all() {
            let mut g = YcsbGen::new(w, 5_000, 6_000, 9);
            for _ in 0..5_000 {
                let k = match g.next_op() {
                    YcsbOp::Read(k)
                    | YcsbOp::Update(k)
                    | YcsbOp::Insert(k)
                    | YcsbOp::Scan(k, _)
                    | YcsbOp::Rmw(k) => k,
                };
                assert!(k < g.n.max(6_000), "{w}: key {k} out of range");
            }
        }
    }

    #[test]
    fn zipfian_workloads_are_skewed() {
        let mut g = YcsbGen::new(YcsbWorkload::C, 100_000, 100_000, 5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            if let YcsbOp::Read(k) = g.next_op() {
                *counts.entry(k).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 100, "zipfian hot key hit only {max} times");
    }

    #[test]
    fn deterministic() {
        let seq = |seed| {
            let mut g = YcsbGen::new(YcsbWorkload::A, 1000, 1000, seed);
            (0..100).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}
