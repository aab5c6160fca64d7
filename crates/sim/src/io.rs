//! Workload snapshots: save and reload generated instances as JSON.
//!
//! Experiments are deterministic given a seed, but snapshots make runs
//! portable across versions of the generator: EXPERIMENTS.md rows can be
//! pinned to exact workloads, and regressions can replay the precise
//! instance that produced a number.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use serde::{Deserialize, Serialize};

use mcs_types::{Instance, McsError, TrueType};

use crate::{GeneratedInstance, Setting};

/// The serialized form of a workload: the generating setting (for
/// provenance), the instance, and the workers' private types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The setting the workload was drawn from.
    pub setting: Setting,
    /// The seed passed to [`Setting::generate`].
    pub seed: u64,
    /// The generated auction input.
    pub instance: Instance,
    /// The workers' private types (truthful bids equal these).
    pub types: Vec<TrueType>,
}

impl Snapshot {
    /// Captures a setting + seed into a snapshot.
    pub fn capture(setting: &Setting, seed: u64) -> Snapshot {
        let GeneratedInstance { instance, types } = setting.generate(seed);
        Snapshot {
            setting: setting.clone(),
            seed,
            instance,
            types,
        }
    }

    /// Writes the snapshot as pretty JSON.
    ///
    /// # Errors
    ///
    /// I/O or serialization failures.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        let file = File::create(path)?;
        serde_json::to_writer_pretty(BufWriter::new(file), self)?;
        Ok(())
    }

    /// Reads a snapshot back and checks that its instance is one the
    /// auctions can run, with one private type per worker.
    ///
    /// # Errors
    ///
    /// I/O or deserialization failures, and [`SnapshotError::Invalid`]
    /// for an instance [`Instance::validate`] refuses or a `types` list
    /// whose length is not the worker count.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Snapshot, SnapshotError> {
        let file = File::open(path)?;
        let snapshot: Snapshot = serde_json::from_reader(BufReader::new(file))?;
        snapshot
            .instance
            .validate()
            .map_err(SnapshotError::Invalid)?;
        let workers = snapshot.instance.num_workers();
        if snapshot.types.len() != workers {
            return Err(SnapshotError::Invalid(McsError::DimensionMismatch {
                what: "snapshot worker types",
                expected: workers,
                actual: snapshot.types.len(),
            }));
        }
        Ok(snapshot)
    }

    /// Consumes the snapshot into the generated pair.
    pub fn into_generated(self) -> GeneratedInstance {
        GeneratedInstance {
            instance: self.instance,
            types: self.types,
        }
    }
}

/// Errors from snapshot I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The file decoded, but its contents cannot be auctioned.
    Invalid(McsError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Json(e) => write!(f, "snapshot encoding failed: {e}"),
            SnapshotError::Invalid(e) => write!(f, "snapshot holds an invalid workload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Json(e) => Some(e),
            SnapshotError::Invalid(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_auction::ScheduledMechanism;

    #[test]
    fn roundtrip_preserves_everything() {
        let setting = Setting::one(80).scaled_down(4);
        let snap = Snapshot::capture(&setting, 123);
        let path = std::env::temp_dir().join("dp_mcs_snapshot_test.json");
        snap.save(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(snap, loaded);
        std::fs::remove_file(&path).ok();
        // The reloaded instance behaves identically.
        let pmf_a = mcs_auction::DpHsrcAuction::new(0.1)
            .unwrap()
            .pmf(&snap.instance)
            .unwrap();
        let pmf_b = mcs_auction::DpHsrcAuction::new(0.1)
            .unwrap()
            .pmf(&loaded.into_generated().instance)
            .unwrap();
        assert_eq!(pmf_a.probs(), pmf_b.probs());
    }

    #[test]
    fn snapshot_matches_regeneration() {
        let setting = Setting::one(80).scaled_down(4);
        let snap = Snapshot::capture(&setting, 9);
        let regen = setting.generate(9);
        assert_eq!(snap.instance, regen.instance);
        assert_eq!(snap.types, regen.types);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = Snapshot::load("/nonexistent/dp-mcs-snapshot.json").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn load_refuses_workloads_the_auction_cannot_run() {
        let setting = Setting::one(80).scaled_down(4);
        let snap = Snapshot::capture(&setting, 5);
        assert_eq!(snap.instance.num_tasks(), 7);
        let path = std::env::temp_dir().join("dp_mcs_snapshot_invalid.json");

        // One task fewer than the skill rows and error bounds describe.
        snap.save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let at = json.find("\"instance\": {").unwrap();
        let (setting, instance) = json.split_at(at);
        let edited = instance.replacen("\"num_tasks\": 7", "\"num_tasks\": 1", 1);
        assert_ne!(edited, instance);
        std::fs::write(&path, format!("{setting}{edited}")).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Invalid(McsError::DimensionMismatch { .. })
            ),
            "{err}"
        );

        // One private type short of the worker count.
        let mut short = snap.clone();
        short.types.pop();
        short.save(&path).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Invalid(McsError::DimensionMismatch {
                    what: "snapshot worker types",
                    ..
                })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_garbage_errors() {
        let path = std::env::temp_dir().join("dp_mcs_snapshot_garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Json(_)));
        std::fs::remove_file(&path).ok();
    }
}
