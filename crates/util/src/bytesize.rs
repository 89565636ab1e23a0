//! Human-readable byte sizes for the volume experiments (Figs. 13 & 18).

use std::fmt;

/// A byte count that `Display`s with binary-ish units the way the paper's
/// figures do (KB/MB/GB with 1024 steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Construct from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Kilobytes (1024 bytes) as a float, for rate arithmetic like the
    /// paper's Table IV ("KB/s").
    pub fn kb(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Megabytes as a float.
    pub fn mb(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
        let mut v = self.0 as f64;
        let mut unit = 0;
        while v >= 1024.0 && unit < UNITS.len() - 1 {
            v /= 1024.0;
            unit += 1;
        }
        if unit == 0 {
            write!(f, "{} B", self.0)
        } else {
            write!(f, "{:.2} {}", v, UNITS[unit])
        }
    }
}

impl std::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl std::iter::Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_with_units() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize(19 * 1024).to_string(), "19.00 KB");
        assert_eq!(ByteSize(5 * 1024 * 1024).to_string(), "5.00 MB");
        assert_eq!(ByteSize(3 * 1024 * 1024 * 1024).to_string(), "3.00 GB");
    }

    #[test]
    fn unit_conversions() {
        let b = ByteSize(1024 * 1024);
        assert_eq!(b.kb(), 1024.0);
        assert_eq!(b.mb(), 1.0);
    }

    #[test]
    fn add_and_sum() {
        let total: ByteSize = [ByteSize(10), ByteSize(20), ByteSize(30)].into_iter().sum();
        assert_eq!(total, ByteSize(60));
        assert_eq!(ByteSize(1) + ByteSize(2), ByteSize(3));
    }
}
