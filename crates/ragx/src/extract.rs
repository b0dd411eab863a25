//! The multi-step RAG extraction pipeline of §4.2.2.
//!
//! Steps, in paper order:
//! 1. **Rough filter** — enumerate writable parameters from the `/proc`-style
//!    interface.
//! 2. **Retrieval** — query the vector index with *"How do I use the
//!    parameter X?"*, top-K = 20.
//! 3. **Sufficiency check** — does the retrieved context actually document
//!    the parameter? Undocumented parameters are dropped ("parameters that
//!    are not described in the documentation are likely to be of lesser
//!    importance").
//! 4. **Description + range** — parsed *from the retrieved text*, including
//!    `dependent`/`expression` ranges evaluated later against live values.
//! 5. **Binary exclusion** — boolean trade-off parameters dropped.
//! 6. **Importance selection** — keep parameters the documentation marks as
//!    primary performance levers.
//!
//! The pipeline is genuinely text-grounded: if retrieval misses a section,
//! the parameter is lost even though the registry knows it.

use crate::chunk::chunk_default;
use crate::index::VectorIndex;
use crate::manual::{generate_manual, section_marker};
use llmsim::{ParamFact, SimLlm};
use pfs::params::{Bound, ParamRegistry};
use serde::{Deserialize, Serialize};

/// Retrieval depth (the paper's top-K of 20).
pub const TOP_K: usize = 20;

/// A parameter as extracted by the pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtractedParam {
    /// Canonical name.
    pub name: String,
    /// Description recovered from the manual (purpose + I/O effect).
    pub description: String,
    /// Lower bound (constant or dependent expression).
    pub min: Bound,
    /// Upper bound (constant or dependent expression).
    pub max: Bound,
    /// Documented default.
    pub default: i64,
    /// Unit string.
    pub unit: String,
}

/// Filter accounting for the extraction run (the T-PARAMS table).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExtractionReport {
    /// Parameters in the interface tree.
    pub total_params: usize,
    /// Survivors of the writability filter.
    pub writable: usize,
    /// Survivors of the sufficiency check.
    pub sufficient: usize,
    /// Survivors of the binary-exclusion filter.
    pub non_binary: usize,
    /// Final selected count.
    pub selected: usize,
    /// Names dropped for insufficient documentation.
    pub dropped_insufficient: Vec<String>,
    /// Names dropped as binary trade-offs.
    pub dropped_binary: Vec<String>,
    /// Names dropped as low-impact.
    pub dropped_low_impact: Vec<String>,
}

/// The offline extractor: manual index + interface tree.
pub struct RagExtractor {
    index: VectorIndex,
    registry: ParamRegistry,
    manual: String,
}

impl RagExtractor {
    /// Build the extractor: generate the manual, chunk it (1024/20), embed
    /// and index.
    pub fn from_registry(registry: ParamRegistry) -> Self {
        let manual = generate_manual(&registry);
        let index = VectorIndex::build(chunk_default(&manual));
        RagExtractor {
            index,
            registry,
            manual,
        }
    }

    /// The standard extractor for the simulated file system.
    pub fn standard() -> Self {
        Self::from_registry(ParamRegistry::standard())
    }

    /// The underlying registry (interface tree).
    pub fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    /// The vector index (exposed for retrieval benchmarks).
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// Retrieve the documentation section for one parameter, if the index
    /// surfaces it within the top-K chunks. Retrieval decides *whether* the
    /// section is found; the complete section text is then expanded from the
    /// source document (chunks are windows and may truncate a section —
    /// LlamaIndex-style node expansion).
    pub fn retrieve_section(&self, name: &str) -> Option<String> {
        let question = format!("How do I use the parameter {name}?");
        let marker = section_marker(name);
        let hit = self
            .index
            .query(&question, TOP_K)
            .iter()
            .any(|(_, chunk)| chunk.contains(&marker));
        if !hit {
            return None;
        }
        let pos = self.manual.find(&marker)?;
        let after = &self.manual[pos + marker.len()..];
        let end = after.find("## PARAMETER REFERENCE:").unwrap_or(after.len());
        Some(after[..end].trim().to_string())
    }

    /// Grounded fact for one parameter (used by the Fig. 2 comparison and by
    /// the online agents when RAG is enabled). Returns `None` when retrieval
    /// cannot ground the parameter.
    pub fn grounded_fact(&self, name: &str) -> Option<ParamFact> {
        let section = self.retrieve_section(name)?;
        let def = self.registry.get(name)?;
        let (min, max) = parse_range(&section)?;
        let description = parse_description(&section);
        // Dependent bounds resolve at tuning time; represent them here with
        // the registry's i64 view only when constant.
        let min_v = match &min {
            Bound::Const(v) => *v,
            Bound::Expr(_) => def_min_fallback(def),
        };
        let max_v = match &max {
            Bound::Const(v) => *v,
            Bound::Expr(_) => def_max_fallback(def),
        };
        Some(ParamFact::grounded(name, &description, min_v, max_v))
    }

    /// Run the full pipeline. `backend` is the extraction LLM (the paper
    /// defaults to GPT-4o); it is token-metered per parameter judged.
    pub fn extract(&self, backend: &mut SimLlm) -> (Vec<ExtractedParam>, ExtractionReport) {
        let mut report = ExtractionReport {
            total_params: self.registry.len(),
            ..Default::default()
        };
        let mut out = Vec::new();
        for def in self.registry.writable() {
            report.writable += 1;
            let question = format!("How do I use the parameter {}?", def.name);
            let section = self.retrieve_section(def.name);
            let Some(section) = section else {
                report.dropped_insufficient.push(def.name.to_string());
                backend.charge(
                    &format!("{question}\n[retrieved context: no dedicated section]"),
                    "Insufficient documentation; parameter filtered out.",
                );
                continue;
            };
            report.sufficient += 1;

            // Binary exclusion (value type parsed from the section text).
            if section.contains("Value type: boolean") {
                report.dropped_binary.push(def.name.to_string());
                backend.charge(
                    &format!("{question}\n{section}"),
                    "Binary parameter representing a user trade-off; excluded.",
                );
                continue;
            }
            report.non_binary += 1;

            // Importance selection from the documented impact statement.
            if !section.contains("primary lever") {
                report.dropped_low_impact.push(def.name.to_string());
                backend.charge(
                    &format!("{question}\n{section}"),
                    "Documented as low-impact; excluded from the tuning set.",
                );
                continue;
            }

            let Some((min, max)) = parse_range(&section) else {
                report.dropped_insufficient.push(def.name.to_string());
                continue;
            };
            let description = parse_description(&section);
            backend.charge(
                &format!("{question}\n{section}"),
                &format!(
                    "{}: {} Valid range parsed; selected for tuning.",
                    def.name, description
                ),
            );
            out.push(ExtractedParam {
                name: def.name.to_string(),
                description,
                min,
                max,
                default: def.default,
                unit: def.unit.to_string(),
            });
        }
        report.selected = out.len();
        (out, report)
    }
}

fn def_min_fallback(def: &pfs::params::ParamDef) -> i64 {
    match &def.min {
        Bound::Const(v) => *v,
        Bound::Expr(_) => 0,
    }
}

fn def_max_fallback(def: &pfs::params::ParamDef) -> i64 {
    match &def.max {
        Bound::Const(v) => *v,
        Bound::Expr(_) => i64::MAX,
    }
}

/// Parse the description: the prose between the header block and the range
/// sentences.
fn parse_description(section: &str) -> String {
    let body_start = section
        .find("Default:")
        .and_then(|p| section[p..].find("\n\n").map(|q| p + q))
        .unwrap_or(0);
    let end = section
        .find("The minimum accepted value")
        .unwrap_or(section.len());
    section[body_start..end]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse the min/max sentences into bounds (constant or expression).
fn parse_range(section: &str) -> Option<(Bound, Bound)> {
    let min = parse_bound(section, "The minimum accepted value")?;
    let max = parse_bound(section, "The maximum accepted value")?;
    Some((min, max))
}

fn parse_bound(section: &str, lead: &str) -> Option<Bound> {
    let start = section.find(lead)?;
    let rest = &section[start + lead.len()..];
    if rest.starts_with(" is not fixed") {
        // Expression form: "... computed as `expr` ..."
        let tick = rest.find('`')?;
        let rest2 = &rest[tick + 1..];
        let tick2 = rest2.find('`')?;
        return Some(Bound::Expr(rest2[..tick2].to_string()));
    }
    // Constant form: "is <number>."
    let stripped = rest.strip_prefix(" is ")?;
    let num: String = stripped
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    num.parse::<i64>().ok().map(Bound::Const)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::{ModelProfile, SimLlm};
    use pfs::params::TUNABLE_NAMES;

    fn extractor() -> RagExtractor {
        RagExtractor::standard()
    }

    #[test]
    fn pipeline_selects_exactly_the_13_targets() {
        let ex = extractor();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let (params, report) = ex.extract(&mut backend);
        let mut names: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        let mut expected: Vec<&str> = TUNABLE_NAMES.to_vec();
        expected.sort();
        assert_eq!(names, expected, "report: {report:?}");
        assert_eq!(report.selected, 13);
    }

    #[test]
    fn filters_account_for_everything() {
        let ex = extractor();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let (_, report) = ex.extract(&mut backend);
        assert_eq!(
            report.writable,
            report.dropped_insufficient.len()
                + report.dropped_binary.len()
                + report.dropped_low_impact.len()
                + report.selected
        );
        assert!(report.dropped_binary.iter().any(|n| n == "osc.checksums"));
        assert!(report
            .dropped_low_impact
            .iter()
            .any(|n| n == "ldlm.lru_size"));
        assert!(report
            .dropped_insufficient
            .iter()
            .any(|n| n == "mdc.batch_max"));
    }

    #[test]
    fn dependent_ranges_survive_extraction() {
        let ex = extractor();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let (params, _) = ex.extract(&mut backend);
        let ra = params
            .iter()
            .find(|p| p.name == "llite.max_read_ahead_per_file_mb")
            .expect("extracted");
        assert_eq!(ra.max, Bound::Expr("llite.max_read_ahead_mb / 2".into()));
        let mod_rpcs = params
            .iter()
            .find(|p| p.name == "mdc.max_mod_rpcs_in_flight")
            .expect("extracted");
        assert!(matches!(mod_rpcs.max, Bound::Expr(_)));
    }

    #[test]
    fn descriptions_are_accurate_prose() {
        let ex = extractor();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let (params, _) = ex.extract(&mut backend);
        let sc = params.iter().find(|p| p.name == "stripe_count").unwrap();
        // The correct definition from Fig. 2's contrast: "the number of
        // OSTs across which a file will be striped".
        assert!(
            sc.description.contains("a file will be striped"),
            "{}",
            sc.description
        );
        for p in &params {
            assert!(p.description.len() > 40, "{} too thin", p.name);
        }
    }

    #[test]
    fn grounded_fact_matches_truth() {
        let ex = extractor();
        let fact = ex.grounded_fact("llite.statahead_max").expect("grounded");
        assert!(fact.grounded);
        assert_eq!(fact.min, 0);
        assert_eq!(fact.max, 8192);
    }

    #[test]
    fn undocumented_params_cannot_be_grounded() {
        let ex = extractor();
        assert!(ex.grounded_fact("mdc.batch_max").is_none());
        assert!(ex.grounded_fact("llite.inode_cache").is_none());
    }

    #[test]
    fn extraction_charges_tokens() {
        let ex = extractor();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        ex.extract(&mut backend);
        assert!(backend.usage().calls as usize >= 13);
        assert!(backend.usage().input_tokens > 1000);
    }

    #[test]
    fn parse_bound_forms() {
        assert_eq!(
            parse_bound(
                "The minimum accepted value is 64.",
                "The minimum accepted value"
            ),
            Some(Bound::Const(64))
        );
        assert_eq!(
            parse_bound(
                "The maximum accepted value is not fixed: it is computed as \
                 `memory_mb / 2` from other values.",
                "The maximum accepted value"
            ),
            Some(Bound::Expr("memory_mb / 2".into()))
        );
        assert_eq!(parse_bound("no range here", "The minimum"), None);
    }
}
