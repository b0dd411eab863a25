//! Brute-force cosine vector index over manual chunks.

use crate::embed::{cosine, Embedder};
use rayon::prelude::*;

/// A queryable vector index (the paper's LlamaIndex vector store).
#[derive(Debug, Clone)]
pub struct VectorIndex {
    chunks: Vec<String>,
    vectors: Vec<Vec<f32>>,
    embedder: Embedder,
}

impl VectorIndex {
    /// Build an index from pre-chunked text, embedding chunks sequentially.
    pub fn build(chunks: Vec<String>) -> Self {
        let embedder = Embedder;
        let vectors: Vec<Vec<f32>> = chunks.par_iter().map(|c| embedder.embed(c)).collect();
        VectorIndex {
            chunks,
            vectors,
            embedder,
        }
    }

    /// Top-`k` chunks by cosine similarity to `query`, best first.
    pub fn query(&self, query: &str, k: usize) -> Vec<(f32, &str)> {
        let qv = self.embedder.embed(query);
        let mut scored: Vec<(f32, usize)> = self
            .vectors
            .par_iter()
            .enumerate()
            .map(|(i, v)| (cosine(&qv, v), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored
            .into_iter()
            .take(k)
            .map(|(s, i)| (s, self.chunks[i].as_str()))
            .collect()
    }

    /// Number of chunks in the index.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> VectorIndex {
        VectorIndex::build(vec![
            "stripe_count determines the number of OSTs a file is striped \
             across; wide striping aggregates bandwidth"
                .to_string(),
            "max_dirty_mb bounds the dirty page cache each OSC may hold \
             before writers block on writeback"
                .to_string(),
            "the metadata server processes create unlink and getattr \
             requests from metadata clients"
                .to_string(),
            "statahead_max limits how many directory entries the statahead \
             thread prefetches"
                .to_string(),
        ])
    }

    #[test]
    fn retrieves_relevant_chunk_first() {
        let idx = index();
        let hits = idx.query("How do I use the parameter statahead_max?", 2);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].1.contains("statahead_max"), "got: {}", hits[0].1);
        assert!(hits[0].0 >= hits[1].0);
    }

    #[test]
    fn k_larger_than_index_returns_all() {
        let idx = index();
        assert_eq!(idx.query("anything", 100).len(), 4);
    }

    #[test]
    fn empty_index() {
        let idx = VectorIndex::build(vec![]);
        assert!(idx.is_empty());
        assert!(idx.query("q", 5).is_empty());
    }

    #[test]
    fn deterministic_ordering_on_ties() {
        let idx = VectorIndex::build(vec!["same text".into(), "same text".into()]);
        let a = idx.query("same text", 2);
        let b = idx.query("same text", 2);
        assert_eq!(
            a.iter().map(|(s, c)| (*s, *c)).collect::<Vec<_>>(),
            b.iter().map(|(s, c)| (*s, *c)).collect::<Vec<_>>()
        );
    }
}
