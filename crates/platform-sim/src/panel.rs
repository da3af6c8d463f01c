//! The broker scoring panel: the fields the utility model reads, laid
//! out as structure-of-arrays.
//!
//! Scoring a batch evaluates `u_{r,b}` for every request against every
//! available broker. Reading each [`BrokerProfile`]'s heap `preference`
//! vector chases one pointer per pair; the panel keeps the `PREF_DIM`
//! preference components as contiguous planes next to a quality plane
//! and an id plane, so one request row is a straight loop the compiler
//! can vectorise. [`crate::Platform`] builds the population's panel
//! once (profiles never change after construction); a matcher packs
//! the subset of brokers it may use into a reused panel of its own
//! with [`BrokerPanel::pack_from`]. DESIGN.md §16 ("The scoring panel").

use crate::broker::{BrokerProfile, PREF_DIM};

/// Structure-of-arrays copy of the broker fields the utility model
/// reads, one column per broker.
#[derive(Clone, Debug, Default)]
pub struct BrokerPanel {
    /// `pref[k][j]`: component `k` of column `j`'s preference. Empty
    /// unless the panel is packed.
    pref: [Vec<f64>; PREF_DIM],
    /// Latent match quality per column. Empty unless packed.
    quality: Vec<f64>,
    /// Broker id per column, as the pair-noise hash keys it. Empty
    /// unless packed.
    id: Vec<u64>,
    /// Population index of each column: what the fault overlay and the
    /// point-wise fallback look brokers up by.
    index: Vec<usize>,
    /// Every broker's preference has exactly `PREF_DIM` components, so
    /// the planes hold the whole model input. Otherwise only `index` is
    /// filled and rows are scored point-wise from the profiles.
    packed: bool,
}

impl BrokerPanel {
    /// The panel of a whole population, column `j` = `brokers[j]`.
    pub(crate) fn new(brokers: &[BrokerProfile]) -> Self {
        let packed = brokers.iter().all(|b| b.preference.len() == PREF_DIM);
        let mut panel = Self { packed, ..Self::default() };
        panel.index.extend(0..brokers.len());
        if packed {
            for (k, plane) in panel.pref.iter_mut().enumerate() {
                plane.extend(brokers.iter().map(|b| b.preference[k]));
            }
            panel.quality.extend(brokers.iter().map(|b| b.quality));
            panel.id.extend(brokers.iter().map(|b| b.id as u64));
        }
        panel
    }

    /// Refill `self` with the columns `cols` of `full` (population
    /// indices into a panel built by [`BrokerPanel::new`]), reusing
    /// this panel's allocations.
    pub fn pack_from(&mut self, full: &BrokerPanel, cols: &[usize]) {
        self.packed = full.packed;
        self.index.clear();
        self.index.extend(cols.iter().map(|&b| full.index[b]));
        for plane in &mut self.pref {
            plane.clear();
        }
        self.quality.clear();
        self.id.clear();
        if full.packed {
            for (dst, src) in self.pref.iter_mut().zip(&full.pref) {
                dst.extend(cols.iter().map(|&b| src[b]));
            }
            self.quality.extend(cols.iter().map(|&b| full.quality[b]));
            self.id.extend(cols.iter().map(|&b| full.id[b]));
        }
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Population index of each column.
    pub(crate) fn index(&self) -> &[usize] {
        &self.index
    }

    /// Do the planes hold every column's model input (every preference
    /// has `PREF_DIM` components)?
    pub(crate) fn is_packed(&self) -> bool {
        self.packed
    }

    /// The preference planes, quality and ids of the first `n` columns.
    pub(crate) fn planes(&self, n: usize) -> ([&[f64]; PREF_DIM], &[f64], &[u64]) {
        (std::array::from_fn(|k| &self.pref[k][..n]), &self.quality[..n], &self.id[..n])
    }
}
