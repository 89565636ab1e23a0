//! Strongly-typed identifiers shared across MonSTer.
//!
//! The Quanah cluster addresses BMCs by management-network IPv4 addresses
//! (`10.101.<chassis>.<slot>`, e.g. the `"10.101.1.1"` of the paper's
//! Figs. 4–5) and labels nodes `"<chassis>-<slot>"` (e.g. node `"1-31"` of
//! Fig. 8). [`NodeId`] owns both conventions so every crate derives them the
//! same way.

use std::fmt;

/// A compute node, identified by its (chassis, slot) position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Chassis number, 1-based.
    pub chassis: u16,
    /// Slot within the chassis, 1-based.
    pub slot: u16,
}

impl NodeId {
    /// Construct from chassis and slot numbers (both 1-based).
    pub const fn new(chassis: u16, slot: u16) -> Self {
        NodeId { chassis, slot }
    }

    /// Enumerate the node ids of a cluster laid out as `nodes` machines
    /// packed `slots_per_chassis` to a chassis, in management-network order.
    pub fn enumerate(nodes: usize, slots_per_chassis: u16) -> Vec<NodeId> {
        assert!(slots_per_chassis > 0);
        (0..nodes)
            .map(|i| {
                NodeId::new((i as u16) / slots_per_chassis + 1, (i as u16) % slots_per_chassis + 1)
            })
            .collect()
    }

    /// The BMC's management-network address, `10.101.<chassis>.<slot>`.
    pub fn bmc_addr(&self) -> String {
        self.addr().as_str().to_owned()
    }

    /// [`bmc_addr`](Self::bmc_addr) on the stack: what `Display` writes,
    /// for a caller that wants the `&str` without `core::fmt`.
    pub fn addr(&self) -> NodeText {
        NodeText::new(b"10.101.", *self, b'.')
    }

    /// The human label used in dashboards: `<chassis>-<slot>` (Fig. 8's
    /// node `"1-31"`).
    pub fn label(&self) -> String {
        self.label_display().as_str().to_owned()
    }

    /// [`label`](Self::label) on the stack, for a formatter or a `&str`.
    pub fn label_display(&self) -> NodeText {
        NodeText::new(b"", *self, b'-')
    }

    /// Parse either convention: `"10.101.1.31"` or `"1-31"`.
    pub fn parse(s: &str) -> Option<NodeId> {
        if let Some(rest) = s.strip_prefix("10.101.") {
            let (c, n) = rest.split_once('.')?;
            return Some(NodeId::new(c.parse().ok()?, n.parse().ok()?));
        }
        let (c, n) = s.split_once('-')?;
        Some(NodeId::new(c.parse().ok()?, n.parse().ok()?))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.addr().as_str())
    }
}

/// A node's address or label, written into a stack buffer: one
/// `write_str` for a formatter, no digit loop through `core::fmt`.
#[derive(Clone, Copy)]
pub struct NodeText {
    /// `10.101.` + two `u16`s and the separator: 18 bytes at most.
    buf: [u8; 18],
    len: usize,
}

impl NodeText {
    fn new(prefix: &[u8], node: NodeId, sep: u8) -> NodeText {
        let mut text = NodeText { buf: [0; 18], len: prefix.len() };
        text.buf[..prefix.len()].copy_from_slice(prefix);
        text.push(node.chassis);
        text.buf[text.len] = sep;
        text.len += 1;
        text.push(node.slot);
        text
    }

    /// Append `n` in decimal, no leading zeros.
    fn push(&mut self, mut n: u16) {
        let width = n.checked_ilog10().map_or(1, |log| log as usize + 1);
        for digit in self.buf[self.len..self.len + width].iter_mut().rev() {
            *digit = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self.len += width;
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("ASCII digits and separators")
    }
}

impl fmt::Display for NodeText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A batch job id, assigned sequentially by the scheduler (UGE-style
/// seven-digit ids like `1291784` in Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The raw numeric id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A cluster user account name (e.g. the `"jieyao"` / `"abdumal"` of
/// Fig. 6's timeline).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserName(pub String);

impl UserName {
    /// Construct from any string-like value.
    pub fn new(s: impl Into<String>) -> Self {
        UserName(s.into())
    }

    /// The account name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UserName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for UserName {
    fn from(s: &str) -> Self {
        UserName(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bmc_addr_matches_paper_convention() {
        assert_eq!(NodeId::new(1, 1).bmc_addr(), "10.101.1.1");
        assert_eq!(NodeId::new(1, 31).label(), "1-31");
    }

    #[test]
    fn parse_accepts_both_conventions() {
        assert_eq!(NodeId::parse("10.101.1.31"), Some(NodeId::new(1, 31)));
        assert_eq!(NodeId::parse("1-31"), Some(NodeId::new(1, 31)));
        assert_eq!(NodeId::parse("10.101.13.2"), Some(NodeId::new(13, 2)));
        assert_eq!(NodeId::parse("garbage"), None);
        assert_eq!(NodeId::parse("10.101.x.1"), None);
    }

    #[test]
    fn enumerate_packs_chassis() {
        // Quanah: 467 nodes, modelled as chassis of 4 C6320 sleds.
        let ids = NodeId::enumerate(467, 4);
        assert_eq!(ids.len(), 467);
        assert_eq!(ids[0], NodeId::new(1, 1));
        assert_eq!(ids[3], NodeId::new(1, 4));
        assert_eq!(ids[4], NodeId::new(2, 1));
        assert_eq!(ids[466], NodeId::new(117, 3));
        // All distinct.
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 467);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId::new(2, 3).to_string(), "10.101.2.3");
        assert_eq!(JobId(1_291_784).to_string(), "1291784");
        assert_eq!(UserName::new("jieyao").to_string(), "jieyao");
    }

    /// Every text a node has, against the `format!` it replaced, and back
    /// through [`NodeId::parse`].
    fn node_text_is_formats(node: NodeId) {
        let (c, s) = (node.chassis, node.slot);
        assert_eq!(node.to_string(), format!("10.101.{c}.{s}"));
        assert_eq!(node.addr().as_str(), format!("10.101.{c}.{s}"));
        assert_eq!(node.bmc_addr(), format!("10.101.{c}.{s}"));
        assert_eq!(node.label(), format!("{c}-{s}"));
        assert_eq!(node.label_display().to_string(), format!("{c}-{s}"));
        assert_eq!(NodeId::parse(&node.bmc_addr()), Some(node));
        assert_eq!(NodeId::parse(&node.label()), Some(node));
    }

    #[test]
    fn node_text_at_the_digit_edges() {
        let edges = [0, 1, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 65_535];
        for c in edges {
            for s in edges {
                node_text_is_formats(NodeId::new(c, s));
            }
        }
    }

    proptest! {
        #[test]
        fn node_text_is_the_format_it_replaced(c in any::<u16>(), s in any::<u16>()) {
            node_text_is_formats(NodeId::new(c, s));
        }
    }
}
