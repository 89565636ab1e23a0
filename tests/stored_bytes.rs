//! The bytes a durable deployment leaves on disk, pinned.
//!
//! A seeded 8-node deployment with a `data_dir` runs an hour of intervals
//! from each of the three sources in turn: sweep, sensors, telemetry. The
//! directory it leaves behind (WAL segments and whatever else storage wrote)
//! is hashed, sorted relative paths and file bytes, with FNV-1a. Both schema
//! generations are run, so a refactor of the point writer or the schema table
//! that moves a stored byte in either fails here.
//!
//! A change that means to move stored bytes re-records the digest and says
//! why in its change notes.

use monster::collector::{SchemaVersion, Source};
use monster::redfish::telemetry::TelemetryService;
use monster::{Monster, MonsterConfig};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Every file under `dir`, in sorted relative-path order: its path, a zero
/// byte, its length and its bytes.
fn digest(dir: &Path) -> (u64, usize) {
    let mut files = Vec::new();
    files_under(dir, &mut files);
    let mut relative: Vec<String> = files
        .iter()
        .map(|p| p.strip_prefix(dir).expect("under dir").to_string_lossy().into_owned())
        .collect();
    relative.sort();
    let mut h = Fnv::new();
    for name in &relative {
        let bytes = std::fs::read(dir.join(name)).expect("readable file");
        h.write(name.as_bytes());
        h.write(&[0]);
        h.write(&(bytes.len() as u64).to_le_bytes());
        h.write(&bytes);
    }
    (h.0, relative.len())
}

/// Run the three-source hour into a fresh directory and hash what it left.
fn stored(schema: SchemaVersion) -> (u64, usize) {
    let dir = std::env::temp_dir()
        .join(format!("monster-stored-bytes-{schema:?}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = Monster::new(MonsterConfig {
        nodes: 8,
        seed: 37,
        schema,
        data_dir: Some(dir.clone()),
        ..MonsterConfig::default()
    });
    let mut service = TelemetryService::new();
    for i in 0..60 {
        let source = match i % 3 {
            0 => Source::Sweep,
            1 => Source::Sensors,
            _ => Source::Telemetry(&mut service),
        };
        m.run_interval_from(source).unwrap();
    }
    drop(m);
    let out = digest(&dir);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn a_seeded_hour_stores_the_pinned_bytes() {
    let optimized = stored(SchemaVersion::Optimized);
    let previous = stored(SchemaVersion::Previous);
    assert_eq!(optimized, (0x59e6_5788_a260_b754, 1), "optimized schema: digest, files");
    assert_eq!(previous, (0x328d_826b_b660_82f5, 1), "previous schema: digest, files");
}
