//! A deterministic dashboard-shaped document: node → metric → array of
//! `{"time":…,"value":…}` points whose values carry 15–17 significant
//! digits, like the Metrics Builder's `/v1/metrics` bodies.

#![allow(dead_code)]

/// xorshift64*: the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(metric, base reading, spread)`.
const METRICS: [(&str, f64, f64); 10] = [
    ("power", 280.0, 40.0),
    ("CPU1 Temp", 62.0, 3.0),
    ("CPU2 Temp", 58.0, 3.0),
    ("Inlet Temp", 20.0, 1.0),
    ("Fan 1", 4200.0, 150.0),
    ("Fan 2", 4200.0, 150.0),
    ("Fan 3", 4150.0, 150.0),
    ("Fan 4", 4150.0, 150.0),
    ("cpu_usage", 0.6, 0.4),
    ("memory", 0.3, 0.2),
];

/// `nodes` nodes × 10 metrics × `points` one-minute points. 150 × 15 is
/// ≈ 1 MB.
pub fn dashboard_document(seed: u64, nodes: usize, points: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut doc = String::from("{");
    for node in 0..nodes {
        if node > 0 {
            doc.push(',');
        }
        doc.push_str(&format!("\"10.101.{}.{}\":{{", node / 60 + 1, node % 60 + 1));
        for (m, (name, base, spread)) in METRICS.iter().enumerate() {
            if m > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"{name}\":["));
            let mut level = base + spread * (rng.unit() - 0.5);
            for i in 0..points {
                if i > 0 {
                    doc.push(',');
                }
                level += spread * 0.1 * (rng.unit() - 0.5);
                let time = 1_587_340_800 + 60 * i as u64;
                doc.push_str(&format!("{{\"time\":{time},\"value\":{level}}}"));
            }
            doc.push(']');
        }
        doc.push('}');
    }
    doc.push('}');
    doc.into_bytes()
}
