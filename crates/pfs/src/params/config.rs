//! Runtime tuning configuration: the values of the 13 high-impact tunables.
//!
//! [`TuningConfig`] is what the Tuning Agent manipulates (by name, the way
//! `lctl set_param` would) and what the simulator consumes. Validation
//! resolves dependent bounds against the cluster's hardware facts, mirroring
//! how STELLAR evaluates `expression` ranges "based on actual system values
//! during tuning" (§4.2.2).

use super::registry::ParamRegistry;
use crate::topology::ClusterSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Canonical names of the 13 tunables, in registry order.
pub const TUNABLE_NAMES: [&str; 13] = [
    "stripe_size",
    "stripe_count",
    "osc.max_rpcs_in_flight",
    "osc.max_pages_per_rpc",
    "osc.max_dirty_mb",
    "osc.short_io_bytes",
    "llite.max_cached_mb",
    "llite.max_read_ahead_mb",
    "llite.max_read_ahead_per_file_mb",
    "llite.max_read_ahead_whole_mb",
    "llite.statahead_max",
    "mdc.max_rpcs_in_flight",
    "mdc.max_mod_rpcs_in_flight",
];

/// The tunable surface of the simulated file system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuningConfig {
    /// Bytes per stripe before the layout advances to the next OST object.
    pub stripe_size: u64,
    /// Number of OSTs a file is striped over; -1 means all OSTs.
    pub stripe_count: i32,
    /// Max concurrent bulk RPCs per client-OST pair.
    pub osc_max_rpcs_in_flight: u32,
    /// Max 4 KiB pages per bulk RPC.
    pub osc_max_pages_per_rpc: u32,
    /// Max dirty MB buffered per client-OST pair.
    pub osc_max_dirty_mb: u32,
    /// Inline (short) I/O threshold in bytes; 0 disables.
    pub osc_short_io_bytes: u32,
    /// Client page-cache budget in MB.
    pub llite_max_cached_mb: u32,
    /// Client-wide readahead budget in MB; 0 disables readahead.
    pub llite_max_read_ahead_mb: u32,
    /// Per-file readahead window cap in MB.
    pub llite_max_read_ahead_per_file_mb: u32,
    /// Whole-file readahead threshold in MB.
    pub llite_max_read_ahead_whole_mb: u32,
    /// Statahead prefetch depth in entries; 0 disables.
    pub llite_statahead_max: u32,
    /// Max concurrent metadata RPCs per client.
    pub mdc_max_rpcs_in_flight: u32,
    /// Max concurrent modifying metadata RPCs per client.
    pub mdc_max_mod_rpcs_in_flight: u32,
}

impl Default for TuningConfig {
    fn default() -> Self {
        Self::lustre_default()
    }
}

/// Error from name-based access or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The name is not one of the 13 tunables.
    UnknownParam(String),
    /// Value violates a (possibly dependent) bound.
    OutOfRange {
        /// Parameter name.
        name: String,
        /// Offending value.
        value: i64,
        /// Resolved lower bound.
        min: i64,
        /// Resolved upper bound.
        max: i64,
    },
    /// A dependent bound failed to resolve.
    BadBound(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownParam(n) => write!(f, "unknown tunable `{n}`"),
            ConfigError::OutOfRange {
                name,
                value,
                min,
                max,
            } => write!(f, "`{name}` = {value} outside [{min}, {max}]"),
            ConfigError::BadBound(m) => write!(f, "bound resolution failed: {m}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl TuningConfig {
    /// Defaults matching the paper's Lustre 2.15 deployment.
    pub fn lustre_default() -> Self {
        TuningConfig {
            stripe_size: 1 << 20,
            stripe_count: 1,
            osc_max_rpcs_in_flight: 8,
            osc_max_pages_per_rpc: 256,
            osc_max_dirty_mb: 32,
            osc_short_io_bytes: 16384,
            llite_max_cached_mb: 65536,
            llite_max_read_ahead_mb: 64,
            llite_max_read_ahead_per_file_mb: 32,
            llite_max_read_ahead_whole_mb: 2,
            llite_statahead_max: 32,
            mdc_max_rpcs_in_flight: 8,
            mdc_max_mod_rpcs_in_flight: 7,
        }
    }

    /// Get a tunable by canonical name.
    pub fn get(&self, name: &str) -> Result<i64, ConfigError> {
        Ok(match name {
            "stripe_size" => self.stripe_size as i64,
            "stripe_count" => self.stripe_count as i64,
            "osc.max_rpcs_in_flight" => self.osc_max_rpcs_in_flight as i64,
            "osc.max_pages_per_rpc" => self.osc_max_pages_per_rpc as i64,
            "osc.max_dirty_mb" => self.osc_max_dirty_mb as i64,
            "osc.short_io_bytes" => self.osc_short_io_bytes as i64,
            "llite.max_cached_mb" => self.llite_max_cached_mb as i64,
            "llite.max_read_ahead_mb" => self.llite_max_read_ahead_mb as i64,
            "llite.max_read_ahead_per_file_mb" => self.llite_max_read_ahead_per_file_mb as i64,
            "llite.max_read_ahead_whole_mb" => self.llite_max_read_ahead_whole_mb as i64,
            "llite.statahead_max" => self.llite_statahead_max as i64,
            "mdc.max_rpcs_in_flight" => self.mdc_max_rpcs_in_flight as i64,
            "mdc.max_mod_rpcs_in_flight" => self.mdc_max_mod_rpcs_in_flight as i64,
            _ => return Err(ConfigError::UnknownParam(name.to_string())),
        })
    }

    /// Set a tunable by canonical name (no range validation; call
    /// [`TuningConfig::validate`] afterwards).
    pub fn set(&mut self, name: &str, value: i64) -> Result<(), ConfigError> {
        match name {
            "stripe_size" => self.stripe_size = value.max(0) as u64,
            "stripe_count" => self.stripe_count = value as i32,
            "osc.max_rpcs_in_flight" => self.osc_max_rpcs_in_flight = value.max(0) as u32,
            "osc.max_pages_per_rpc" => self.osc_max_pages_per_rpc = value.max(0) as u32,
            "osc.max_dirty_mb" => self.osc_max_dirty_mb = value.max(0) as u32,
            "osc.short_io_bytes" => self.osc_short_io_bytes = value.max(0) as u32,
            "llite.max_cached_mb" => self.llite_max_cached_mb = value.max(0) as u32,
            "llite.max_read_ahead_mb" => self.llite_max_read_ahead_mb = value.max(0) as u32,
            "llite.max_read_ahead_per_file_mb" => {
                self.llite_max_read_ahead_per_file_mb = value.max(0) as u32
            }
            "llite.max_read_ahead_whole_mb" => {
                self.llite_max_read_ahead_whole_mb = value.max(0) as u32
            }
            "llite.statahead_max" => self.llite_statahead_max = value.max(0) as u32,
            "mdc.max_rpcs_in_flight" => self.mdc_max_rpcs_in_flight = value.max(0) as u32,
            "mdc.max_mod_rpcs_in_flight" => self.mdc_max_mod_rpcs_in_flight = value.max(0) as u32,
            _ => return Err(ConfigError::UnknownParam(name.to_string())),
        }
        Ok(())
    }

    /// Environment for dependent-bound evaluation: every tunable's current
    /// value plus the cluster's hardware facts.
    pub fn env(&self, topo: &ClusterSpec) -> BTreeMap<String, f64> {
        let mut env = BTreeMap::new();
        for name in TUNABLE_NAMES {
            env.insert(name.to_string(), self.get(name).expect("known name") as f64);
        }
        env.insert("memory_mb".to_string(), topo.client_memory_mb as f64);
        env.insert("ost_count".to_string(), topo.ost_count() as f64);
        env.insert("oss_count".to_string(), topo.oss_count as f64);
        env.insert("client_count".to_string(), topo.client_count as f64);
        env
    }

    /// Validate every tunable against the registry's (possibly dependent)
    /// bounds. Returns all violations, not just the first.
    pub fn validate(
        &self,
        registry: &ParamRegistry,
        topo: &ClusterSpec,
    ) -> Result<(), Vec<ConfigError>> {
        let env = self.env(topo);
        let mut errors = Vec::new();
        for name in TUNABLE_NAMES {
            let def = registry.get(name).expect("tunable in registry");
            let value = self.get(name).expect("known name");
            let min = match def.min.resolve(&env) {
                Ok(v) => v,
                Err(e) => {
                    errors.push(ConfigError::BadBound(format!("{name}: {e}")));
                    continue;
                }
            };
            let max = match def.max.resolve(&env) {
                Ok(v) => v,
                Err(e) => {
                    errors.push(ConfigError::BadBound(format!("{name}: {e}")));
                    continue;
                }
            };
            if value < min || value > max {
                errors.push(ConfigError::OutOfRange {
                    name: name.to_string(),
                    value,
                    min,
                    max,
                });
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Clamp every tunable into its resolved valid range. Dependent bounds
    /// are resolved in canonical order, so clamping is a single pass.
    pub fn clamped(&self, registry: &ParamRegistry, topo: &ClusterSpec) -> TuningConfig {
        let mut out = self.clone();
        for name in TUNABLE_NAMES {
            let env = out.env(topo);
            let def = registry.get(name).expect("tunable in registry");
            let value = out.get(name).expect("known name");
            let min = def.min.resolve(&env).unwrap_or(i64::MIN);
            let max = def.max.resolve(&env).unwrap_or(i64::MAX);
            let clamped = value.clamp(min, max.max(min));
            if clamped != value {
                out.set(name, clamped).expect("known name");
            }
        }
        out
    }

    /// Effective stripe count for a cluster (resolving -1 to "all OSTs").
    pub fn effective_stripe_count(&self, topo: &ClusterSpec) -> u32 {
        if self.stripe_count <= 0 {
            topo.ost_count()
        } else {
            (self.stripe_count as u32).min(topo.ost_count())
        }
    }

    /// Bulk RPC size in bytes implied by `osc.max_pages_per_rpc`.
    pub fn rpc_bytes(&self) -> u64 {
        self.osc_max_pages_per_rpc as u64 * 4096
    }

    /// Render as `name=value` lines (the form shown in tuning transcripts).
    pub fn render(&self) -> String {
        TUNABLE_NAMES
            .iter()
            .map(|n| format!("{n}={}", self.get(n).expect("known name")))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Names of parameters on which `self` and `other` differ.
    pub fn diff(&self, other: &TuningConfig) -> Vec<&'static str> {
        TUNABLE_NAMES
            .iter()
            .filter(|n| self.get(n).expect("known") != other.get(n).expect("known"))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> ClusterSpec {
        ClusterSpec::paper_cluster()
    }

    #[test]
    fn default_is_valid() {
        let cfg = TuningConfig::lustre_default();
        cfg.validate(&ParamRegistry::standard(), &topo()).unwrap();
    }

    #[test]
    fn get_set_roundtrip_all_names() {
        let mut cfg = TuningConfig::lustre_default();
        for name in TUNABLE_NAMES {
            let v = cfg.get(name).unwrap();
            cfg.set(name, v + 1).unwrap();
            assert_eq!(cfg.get(name).unwrap(), v + 1, "{name}");
        }
    }

    #[test]
    fn unknown_name_rejected() {
        let mut cfg = TuningConfig::lustre_default();
        assert!(matches!(
            cfg.get("bogus"),
            Err(ConfigError::UnknownParam(_))
        ));
        assert!(matches!(
            cfg.set("bogus", 1),
            Err(ConfigError::UnknownParam(_))
        ));
    }

    #[test]
    fn out_of_range_detected() {
        let mut cfg = TuningConfig::lustre_default();
        cfg.osc_max_rpcs_in_flight = 10_000;
        let errs = cfg
            .validate(&ParamRegistry::standard(), &topo())
            .unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ConfigError::OutOfRange { name, .. } if name == "osc.max_rpcs_in_flight"
        )));
    }

    #[test]
    fn dependent_bound_enforced() {
        // mod RPCs must stay below mdc.max_rpcs_in_flight.
        let mut cfg = TuningConfig::lustre_default();
        cfg.mdc_max_rpcs_in_flight = 8;
        cfg.mdc_max_mod_rpcs_in_flight = 8; // == max, must be < max
        let errs = cfg
            .validate(&ParamRegistry::standard(), &topo())
            .unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ConfigError::OutOfRange { name, .. } if name == "mdc.max_mod_rpcs_in_flight"
        )));
    }

    #[test]
    fn readahead_per_file_dependent_bound() {
        let mut cfg = TuningConfig::lustre_default();
        cfg.llite_max_read_ahead_mb = 64;
        cfg.llite_max_read_ahead_per_file_mb = 33; // > 64/2
        assert!(cfg.validate(&ParamRegistry::standard(), &topo()).is_err());
        cfg.llite_max_read_ahead_per_file_mb = 32;
        assert!(cfg.validate(&ParamRegistry::standard(), &topo()).is_ok());
    }

    #[test]
    fn clamped_fixes_violations() {
        let mut cfg = TuningConfig::lustre_default();
        cfg.osc_max_rpcs_in_flight = 10_000;
        cfg.llite_max_read_ahead_per_file_mb = 500;
        let fixed = cfg.clamped(&ParamRegistry::standard(), &topo());
        fixed.validate(&ParamRegistry::standard(), &topo()).unwrap();
        assert_eq!(fixed.osc_max_rpcs_in_flight, 256);
    }

    #[test]
    fn effective_stripe_count_resolves_minus_one() {
        let mut cfg = TuningConfig::lustre_default();
        cfg.stripe_count = -1;
        assert_eq!(cfg.effective_stripe_count(&topo()), topo().ost_count());
        cfg.stripe_count = 3;
        assert_eq!(cfg.effective_stripe_count(&topo()), 3);
        cfg.stripe_count = 99;
        assert_eq!(cfg.effective_stripe_count(&topo()), topo().ost_count());
    }

    #[test]
    fn rpc_bytes() {
        let cfg = TuningConfig::lustre_default();
        assert_eq!(cfg.rpc_bytes(), 1 << 20);
    }

    #[test]
    fn diff_lists_changed_params() {
        let a = TuningConfig::lustre_default();
        let mut b = a.clone();
        b.stripe_count = 5;
        b.llite_statahead_max = 128;
        let d = a.diff(&b);
        assert_eq!(d, vec!["stripe_count", "llite.statahead_max"]);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn render_contains_all() {
        let s = TuningConfig::lustre_default().render();
        for n in TUNABLE_NAMES {
            assert!(s.contains(n), "{n} missing from render");
        }
    }

    #[test]
    fn env_exposes_hardware_facts() {
        let cfg = TuningConfig::lustre_default();
        let env = cfg.env(&topo());
        assert_eq!(env["ost_count"], topo().ost_count() as f64);
        assert!(env["memory_mb"] > 0.0);
        assert_eq!(env["stripe_count"], 1.0);
    }
}
