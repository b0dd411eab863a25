//! # ragx — retrieval-augmented parameter extraction
//!
//! Reproduces §4.2's offline phase. The paper chunks the 600-page Lustre
//! manual with LlamaIndex (1024-token chunks, 20-token overlap), embeds with
//! `text-embedding-3-large`, retrieves top-K = 20 chunks per parameter
//! question, and runs a multi-step LLM filter (sufficiency → description +
//! range → binary exclusion → importance). This crate implements the same
//! pipeline against a synthetic manual:
//!
//! * [`manual`] — a Lustre-style operations manual generated from the
//!   parameter registry's ground truth plus general chapters and distractor
//!   prose, so retrieval has real work to do;
//! * [`chunk`] — the 1024/20 token chunker;
//! * [`embed`] — a feature-hashing n-gram embedder (the stand-in for
//!   `text-embedding-3-large`);
//! * [`index`] — a brute-force cosine vector index (embedded sequentially:
//!   the vendored `rayon` is a sequential stand-in);
//! * [`extract`] — the multi-step filtering pipeline, yielding the 13
//!   tunables with accurate descriptions and (possibly dependent) ranges;
//! * [`truth`] — scoring of recalled facts against registry ground truth
//!   (the Fig. 2 experiment).

#![forbid(unsafe_code)]

pub mod chunk;
pub mod embed;
pub mod extract;
pub mod index;
pub mod manual;
pub mod truth;

pub use extract::{ExtractedParam, ExtractionReport, RagExtractor};
pub use index::VectorIndex;
