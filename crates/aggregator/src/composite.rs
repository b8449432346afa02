//! Composite aggregators (Definition 2) and their additive statistics
//! layout.
//!
//! Besides computing aggregate representations directly from object sets,
//! the composite aggregator defines a *statistics vector* layout.  A
//! statistics vector is an additive encoding of partially aggregated data:
//! the statistics of a union of disjoint object sets is the element-wise sum
//! of their statistics.  This property is what allows
//!
//! * the `Discretize` procedure of DS-Search to accumulate per-cell
//!   statistics with 2-D difference arrays (Section 4.3), and
//! * the grid index to store suffix-cumulative attribute summary tables and
//!   answer region queries by inclusion–exclusion (Section 5.2, Lemma 8).
//!
//! The mapping is:
//!
//! | Aggregator      | statistics slots            | feature slots |
//! |-----------------|-----------------------------|---------------|
//! | distribution(A) | one count per value of A    | `|dom(A)|`    |
//! | average(A)      | (sum, count)                | 1             |
//! | sum(A)          | (positive sum, negative sum)| 1             |
//! | count           | (count)                     | 1             |

use crate::kahan::StatsAccumulator;
use crate::{
    distance_lower_bound, weighted_distance, AggregatorKind, DistanceMetric, FeatureVector,
    Selection, Weights,
};
use asrs_data::{AttributeKind, Dataset, Schema, SpatialObject};
use asrs_geo::Rect;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One `(aggregator, attribute, selection)` triple of a composite
/// aggregator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatorSpec {
    /// The aggregator and the attribute it reads.
    pub kind: AggregatorKind,
    /// The selection function γ deciding which objects contribute.
    pub selection: Selection,
}

/// Errors raised when building a composite aggregator against a schema.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregatorError {
    /// The referenced attribute index does not exist in the schema.
    UnknownAttribute(usize),
    /// The referenced attribute name does not exist in the schema.
    UnknownAttributeName(String),
    /// A distribution aggregator referenced a numeric attribute, or an
    /// average/sum aggregator referenced a categorical attribute.
    KindMismatch {
        /// The offending aggregator.
        aggregator: AggregatorKind,
    },
    /// The composite aggregator has no component.
    Empty,
}

impl fmt::Display for AggregatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregatorError::UnknownAttribute(idx) => write!(f, "unknown attribute index {idx}"),
            AggregatorError::UnknownAttributeName(name) => {
                write!(f, "unknown attribute name {name}")
            }
            AggregatorError::KindMismatch { aggregator } => {
                write!(
                    f,
                    "aggregator {aggregator} is incompatible with the attribute kind"
                )
            }
            AggregatorError::Empty => {
                write!(f, "composite aggregator must have at least one component")
            }
        }
    }
}

impl std::error::Error for AggregatorError {}

/// Per-spec layout information resolved against the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SpecLayout {
    stats_offset: usize,
    stats_len: usize,
    feat_offset: usize,
    feat_len: usize,
    /// Declared numeric domain of the attribute (for average bounds).
    numeric_domain: Option<(f64, f64)>,
}

/// A composite aggregator resolved against a dataset schema
/// (Definition 2 / 3 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeAggregator {
    schema: Schema,
    specs: Vec<AggregatorSpec>,
    layouts: Vec<SpecLayout>,
    stats_dim: usize,
    feature_dim: usize,
}

impl CompositeAggregator {
    /// Builds a composite aggregator from explicit specs, validating every
    /// spec against the schema.
    pub fn new(schema: &Schema, specs: Vec<AggregatorSpec>) -> Result<Self, AggregatorError> {
        if specs.is_empty() {
            return Err(AggregatorError::Empty);
        }
        let mut layouts = Vec::with_capacity(specs.len());
        let mut stats_dim = 0usize;
        let mut feature_dim = 0usize;
        for spec in &specs {
            if let Some(attr) = spec.selection.referenced_attr() {
                if schema.attribute(attr).is_none() {
                    return Err(AggregatorError::UnknownAttribute(attr));
                }
            }
            let (stats_len, feat_len, numeric_domain) = match spec.kind {
                AggregatorKind::Distribution { attr } => {
                    let def = schema
                        .attribute(attr)
                        .ok_or(AggregatorError::UnknownAttribute(attr))?;
                    match &def.kind {
                        AttributeKind::Categorical { cardinality, .. } => {
                            (*cardinality, *cardinality, None)
                        }
                        AttributeKind::Numeric { .. } => {
                            return Err(AggregatorError::KindMismatch {
                                aggregator: spec.kind,
                            })
                        }
                    }
                }
                AggregatorKind::Average { attr } => {
                    let def = schema
                        .attribute(attr)
                        .ok_or(AggregatorError::UnknownAttribute(attr))?;
                    match &def.kind {
                        AttributeKind::Numeric { min, max } => (2, 1, Some((*min, *max))),
                        AttributeKind::Categorical { .. } => {
                            return Err(AggregatorError::KindMismatch {
                                aggregator: spec.kind,
                            })
                        }
                    }
                }
                AggregatorKind::Sum { attr } => {
                    let def = schema
                        .attribute(attr)
                        .ok_or(AggregatorError::UnknownAttribute(attr))?;
                    match &def.kind {
                        AttributeKind::Numeric { .. } => (2, 1, None),
                        AttributeKind::Categorical { .. } => {
                            return Err(AggregatorError::KindMismatch {
                                aggregator: spec.kind,
                            })
                        }
                    }
                }
                AggregatorKind::Count => (1, 1, None),
            };
            layouts.push(SpecLayout {
                stats_offset: stats_dim,
                stats_len,
                feat_offset: feature_dim,
                feat_len,
                numeric_domain,
            });
            stats_dim += stats_len;
            feature_dim += feat_len;
        }
        Ok(Self {
            schema: schema.clone(),
            specs,
            layouts,
            stats_dim,
            feature_dim,
        })
    }

    /// Starts a fluent builder that resolves attribute names against the
    /// schema.
    pub fn builder(schema: &Schema) -> CompositeBuilder {
        CompositeBuilder {
            schema: schema.clone(),
            specs: Vec::new(),
            error: None,
        }
    }

    /// The schema the aggregator was resolved against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The component specs.
    pub fn specs(&self) -> &[AggregatorSpec] {
        &self.specs
    }

    /// Dimensionality of the aggregate representation (feature vector).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Dimensionality of the additive statistics vector.
    pub fn stats_dim(&self) -> usize {
        self.stats_dim
    }

    /// Human-readable labels for the feature dimensions, in order.  Useful
    /// for reports (e.g. the stacked-bar comparison of the case study).
    pub fn dimension_labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.feature_dim);
        for (spec, layout) in self.specs.iter().zip(&self.layouts) {
            match spec.kind {
                AggregatorKind::Distribution { attr } => {
                    for value in 0..layout.feat_len {
                        labels.push(format!(
                            "{}={}",
                            self.schema
                                .attribute(attr)
                                .map(|a| a.name.clone())
                                .unwrap_or_else(|| format!("attr{attr}")),
                            self.schema.category_label(attr, value as u32)
                        ));
                    }
                }
                AggregatorKind::Average { attr } => {
                    labels.push(format!(
                        "avg({})",
                        self.schema
                            .attribute(attr)
                            .map(|a| a.name.clone())
                            .unwrap_or_else(|| format!("attr{attr}"))
                    ));
                }
                AggregatorKind::Sum { attr } => {
                    labels.push(format!(
                        "sum({})",
                        self.schema
                            .attribute(attr)
                            .map(|a| a.name.clone())
                            .unwrap_or_else(|| format!("attr{attr}"))
                    ));
                }
                AggregatorKind::Count => labels.push("count".to_string()),
            }
        }
        labels
    }

    /// Returns `true` when `object` can contribute to any component of the
    /// statistics vector, i.e. at least one selection function accepts it.
    /// Objects rejected by every selection are invisible to the aggregator,
    /// so the search layer can drop their ASP rectangles outright — the
    /// class-constrained MaxRS variant and selective aggregators prune
    /// dramatically better for it.
    pub fn contributes(&self, object: &SpatialObject) -> bool {
        self.specs.iter().any(|spec| spec.selection.accepts(object))
    }

    /// Adds the contribution of one object to a statistics vector.
    ///
    /// In debug builds, asserts that `stats.len() == self.stats_dim()`.
    pub fn accumulate_object(&self, object: &SpatialObject, stats: &mut [f64]) {
        debug_assert_eq!(stats.len(), self.stats_dim);
        for (spec, layout) in self.specs.iter().zip(&self.layouts) {
            if !spec.selection.accepts(object) {
                continue;
            }
            let slot = &mut stats[layout.stats_offset..layout.stats_offset + layout.stats_len];
            match spec.kind {
                AggregatorKind::Distribution { attr } => {
                    if let Some(value) = object.cat_value(attr) {
                        let idx = value as usize;
                        if idx < slot.len() {
                            slot[idx] += 1.0;
                        }
                    }
                }
                AggregatorKind::Average { attr } => {
                    if let Some(value) = object.num_value(attr) {
                        slot[0] += value;
                        slot[1] += 1.0;
                    }
                }
                AggregatorKind::Sum { attr } => {
                    if let Some(value) = object.num_value(attr) {
                        if value >= 0.0 {
                            slot[0] += value;
                        } else {
                            slot[1] += value;
                        }
                    }
                }
                AggregatorKind::Count => slot[0] += 1.0,
            }
        }
    }

    /// Adds the contribution of one object to a compensated
    /// [`StatsAccumulator`], the Kahan–Neumaier sibling of
    /// [`CompositeAggregator::accumulate_object`].
    ///
    /// Count-like slots (distribution counts, object counts) sum small
    /// integers, which float addition handles exactly in any order; the
    /// compensation pays off on the `sum` and `average` aggregators, whose
    /// slots sum arbitrary attribute values — there it keeps the
    /// accumulated statistics at the correctly rounded sum, which is
    /// order-independent, instead of drifting with the accumulation order.
    pub fn accumulate_object_into(&self, object: &SpatialObject, acc: &mut StatsAccumulator) {
        debug_assert_eq!(acc.dim(), self.stats_dim);
        for (spec, layout) in self.specs.iter().zip(&self.layouts) {
            if !spec.selection.accepts(object) {
                continue;
            }
            let base = layout.stats_offset;
            match spec.kind {
                AggregatorKind::Distribution { attr } => {
                    if let Some(value) = object.cat_value(attr) {
                        let idx = value as usize;
                        if idx < layout.stats_len {
                            acc.add(base + idx, 1.0);
                        }
                    }
                }
                AggregatorKind::Average { attr } => {
                    if let Some(value) = object.num_value(attr) {
                        acc.add(base, value);
                        acc.add(base + 1, 1.0);
                    }
                }
                AggregatorKind::Sum { attr } => {
                    if let Some(value) = object.num_value(attr) {
                        if value >= 0.0 {
                            acc.add(base, value);
                        } else {
                            acc.add(base + 1, value);
                        }
                    }
                }
                AggregatorKind::Count => acc.add(base, 1.0),
            }
        }
    }

    /// Computes the statistics vector of a set of objects, with compensated
    /// (Kahan–Neumaier) summation so float-sum slots land on the correctly
    /// rounded — and therefore order-independent — total.
    pub fn stats_of<'a, I>(&self, objects: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'a SpatialObject>,
    {
        let mut acc = StatsAccumulator::new(self.stats_dim);
        for o in objects {
            self.accumulate_object_into(o, &mut acc);
        }
        acc.finish()
    }

    /// Converts a statistics vector into the aggregate representation.
    ///
    /// The average of an empty selection is defined as 0 (the paper leaves
    /// this case unspecified; 0 keeps the representation total).
    pub fn stats_to_features(&self, stats: &[f64]) -> FeatureVector {
        let mut features = vec![0.0; self.feature_dim];
        self.stats_to_features_into(stats, &mut features);
        FeatureVector::new(features)
    }

    /// [`CompositeAggregator::stats_to_features`] into a caller-owned
    /// buffer of length [`CompositeAggregator::feature_dim`]; every slot
    /// is overwritten.  The search kernel evaluates each grid cell and
    /// probe point this way and allocates a [`FeatureVector`] only for the
    /// candidates it keeps.
    pub fn stats_to_features_into(&self, stats: &[f64], features: &mut [f64]) {
        debug_assert_eq!(stats.len(), self.stats_dim);
        debug_assert_eq!(features.len(), self.feature_dim);
        for (spec, layout) in self.specs.iter().zip(&self.layouts) {
            let slot = &stats[layout.stats_offset..layout.stats_offset + layout.stats_len];
            let out = &mut features[layout.feat_offset..layout.feat_offset + layout.feat_len];
            match spec.kind {
                AggregatorKind::Distribution { .. } => out.copy_from_slice(slot),
                AggregatorKind::Average { .. } => {
                    out[0] = if slot[1] > 0.0 {
                        slot[0] / slot[1]
                    } else {
                        0.0
                    };
                }
                AggregatorKind::Sum { .. } => out[0] = slot[0] + slot[1],
                AggregatorKind::Count => out[0] = slot[0],
            }
        }
    }

    /// Computes the aggregate representation of a set of objects
    /// (Definition 3).
    pub fn aggregate<'a, I>(&self, objects: I) -> FeatureVector
    where
        I: IntoIterator<Item = &'a SpatialObject>,
    {
        let stats = self.stats_of(objects);
        self.stats_to_features(&stats)
    }

    /// Computes the aggregate representation of the objects of `dataset`
    /// that lie strictly inside `region` (the representation `F(r)` of
    /// Definition 3, with the strict containment of Lemma 1).
    pub fn aggregate_region(&self, dataset: &Dataset, region: &Rect) -> FeatureVector {
        self.aggregate(
            dataset
                .objects()
                .filter(|o| region.strictly_contains_point(&o.location)),
        )
    }

    /// Derives component-wise bounds `[v̲, v̄]` on the aggregate
    /// representation of any object set `S` with `L ⊆ S ⊆ U`, from the
    /// statistics of `L` (`lower_stats`) and `U` (`upper_stats`).
    ///
    /// This is the bound used both for dirty cells in `Discretize`
    /// (Lemma 4 / Lemma 5) and for candidate regions in the grid index
    /// (Section 5.3).  The bounds are sound but not always tight (the
    /// average aggregator falls back to the attribute's declared domain when
    /// the optional objects could change the mean).
    pub fn feature_bounds(
        &self,
        lower_stats: &[f64],
        upper_stats: &[f64],
    ) -> (FeatureVector, FeatureVector) {
        let mut lo = vec![0.0; self.feature_dim];
        let mut hi = vec![0.0; self.feature_dim];
        self.feature_bounds_into(lower_stats, upper_stats, &mut lo, &mut hi);
        (FeatureVector::new(lo), FeatureVector::new(hi))
    }

    /// [`CompositeAggregator::feature_bounds`] into caller-owned buffers of
    /// length [`CompositeAggregator::feature_dim`]; every slot of both is
    /// overwritten.
    pub fn feature_bounds_into(
        &self,
        lower_stats: &[f64],
        upper_stats: &[f64],
        lo: &mut [f64],
        hi: &mut [f64],
    ) {
        debug_assert_eq!(lower_stats.len(), self.stats_dim);
        debug_assert_eq!(upper_stats.len(), self.stats_dim);
        debug_assert_eq!(lo.len(), self.feature_dim);
        debug_assert_eq!(hi.len(), self.feature_dim);
        for (spec, layout) in self.specs.iter().zip(&self.layouts) {
            let l = &lower_stats[layout.stats_offset..layout.stats_offset + layout.stats_len];
            let u = &upper_stats[layout.stats_offset..layout.stats_offset + layout.stats_len];
            let lo_out = &mut lo[layout.feat_offset..layout.feat_offset + layout.feat_len];
            let hi_out = &mut hi[layout.feat_offset..layout.feat_offset + layout.feat_len];
            match spec.kind {
                AggregatorKind::Distribution { .. } => {
                    lo_out.copy_from_slice(l);
                    hi_out.copy_from_slice(u);
                }
                AggregatorKind::Count => {
                    lo_out[0] = l[0];
                    hi_out[0] = u[0];
                }
                AggregatorKind::Sum { .. } => {
                    // Positive contributions of optional objects can only
                    // raise the sum, negative ones can only lower it.
                    lo_out[0] = l[0] + u[1];
                    hi_out[0] = u[0] + l[1];
                }
                AggregatorKind::Average { .. } => {
                    let (l_sum, l_cnt) = (l[0], l[1]);
                    let (u_sum, u_cnt) = (u[0], u[1]);
                    if u_cnt <= 0.0 {
                        // No object can ever be selected: the average is
                        // exactly the empty-selection convention, 0.
                        lo_out[0] = 0.0;
                        hi_out[0] = 0.0;
                    } else if (u_cnt - l_cnt).abs() < f64::EPSILON && (u_sum - l_sum).abs() < 1e-9 {
                        // The mandatory and optional sets coincide: exact.
                        let avg = l_sum / l_cnt;
                        lo_out[0] = avg;
                        hi_out[0] = avg;
                    } else {
                        let (dom_min, dom_max) =
                            layout.numeric_domain.unwrap_or((f64::MIN, f64::MAX));
                        // Up to `k` optional objects, each with a value in
                        // the attribute domain, may join the mandatory set.
                        // The average (sl + x) / (cl + j), with j ≤ k chosen
                        // objects contributing x ∈ [j·dom_min, j·dom_max],
                        // is monotone in j for fixed per-object extremes,
                        // so its range is spanned by j = 0 and j = k.
                        let k = (u_cnt - l_cnt).max(0.0);
                        let (min_avg, max_avg) = if l_cnt > 0.0 {
                            let avg_l = l_sum / l_cnt;
                            (
                                avg_l.min((l_sum + k * dom_min) / (l_cnt + k)),
                                avg_l.max((l_sum + k * dom_max) / (l_cnt + k)),
                            )
                        } else {
                            // The selection may be empty ⇒ the value 0 is
                            // also attainable.
                            (dom_min.min(0.0), dom_max.max(0.0))
                        };
                        lo_out[0] = min_avg;
                        hi_out[0] = max_avg;
                    }
                }
            }
        }
    }

    /// Convenience wrapper: the Equation-1 lower bound on the distance to
    /// `query` for any object set between the two statistics vectors.
    pub fn lower_bound_distance(
        &self,
        query: &FeatureVector,
        lower_stats: &[f64],
        upper_stats: &[f64],
        weights: &Weights,
        metric: DistanceMetric,
    ) -> f64 {
        let (lo, hi) = self.feature_bounds(lower_stats, upper_stats);
        distance_lower_bound(query, &lo, &hi, weights, metric)
    }

    /// Convenience wrapper: the weighted distance between two aggregate
    /// representations.
    pub fn distance(
        &self,
        a: &FeatureVector,
        b: &FeatureVector,
        weights: &Weights,
        metric: DistanceMetric,
    ) -> f64 {
        weighted_distance(a, b, weights, metric)
    }
}

/// Fluent builder for [`CompositeAggregator`] resolving attribute names.
#[derive(Debug, Clone)]
pub struct CompositeBuilder {
    schema: Schema,
    specs: Vec<AggregatorSpec>,
    error: Option<AggregatorError>,
}

impl CompositeBuilder {
    fn resolve(&mut self, name: &str) -> Option<usize> {
        match self.schema.attr_index(name) {
            Some(idx) => Some(idx),
            None => {
                if self.error.is_none() {
                    self.error = Some(AggregatorError::UnknownAttributeName(name.to_string()));
                }
                None
            }
        }
    }

    /// Adds a distribution aggregator over the named categorical attribute.
    pub fn distribution(mut self, attr_name: &str, selection: Selection) -> Self {
        if let Some(attr) = self.resolve(attr_name) {
            self.specs.push(AggregatorSpec {
                kind: AggregatorKind::Distribution { attr },
                selection,
            });
        }
        self
    }

    /// Adds an average aggregator over the named numeric attribute.
    pub fn average(mut self, attr_name: &str, selection: Selection) -> Self {
        if let Some(attr) = self.resolve(attr_name) {
            self.specs.push(AggregatorSpec {
                kind: AggregatorKind::Average { attr },
                selection,
            });
        }
        self
    }

    /// Adds a sum aggregator over the named numeric attribute.
    pub fn sum(mut self, attr_name: &str, selection: Selection) -> Self {
        if let Some(attr) = self.resolve(attr_name) {
            self.specs.push(AggregatorSpec {
                kind: AggregatorKind::Sum { attr },
                selection,
            });
        }
        self
    }

    /// Adds a count aggregator.
    pub fn count(mut self, selection: Selection) -> Self {
        self.specs.push(AggregatorSpec {
            kind: AggregatorKind::Count,
            selection,
        });
        self
    }

    /// Finalises the composite aggregator.
    pub fn build(self) -> Result<CompositeAggregator, AggregatorError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        CompositeAggregator::new(&self.schema, self.specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_data::{AttrValue, AttributeDef, DatasetBuilder};
    use asrs_geo::Point;

    /// Schema and dataset matching the paper's running example (Fig. 1):
    /// categories {Apartment, Supermarket, Restaurant, Bus stop} and a price
    /// attribute that is meaningful for apartments.
    fn example_schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new(
                "category",
                AttributeKind::categorical_labeled(vec![
                    "Apartment",
                    "Supermarket",
                    "Restaurant",
                    "Bus stop",
                ]),
            ),
            AttributeDef::new("price", AttributeKind::numeric(0.0, 10.0)),
        ])
    }

    fn example_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(example_schema());
        // Query region r_q of Example 2: two apartments (price 2 and 1.5),
        // one supermarket, one restaurant, one bus stop.
        b.push(1.0, 1.0, vec![AttrValue::Cat(0), AttrValue::Num(2.0)]);
        b.push(1.2, 1.4, vec![AttrValue::Cat(0), AttrValue::Num(1.5)]);
        b.push(1.6, 1.1, vec![AttrValue::Cat(1), AttrValue::Num(0.0)]);
        b.push(1.3, 1.8, vec![AttrValue::Cat(2), AttrValue::Num(0.0)]);
        b.push(1.9, 1.9, vec![AttrValue::Cat(3), AttrValue::Num(0.0)]);
        b.build().unwrap()
    }

    fn example_aggregator() -> CompositeAggregator {
        CompositeAggregator::builder(&example_schema())
            .distribution("category", Selection::All)
            .average("price", Selection::cat_equals(0, 0))
            .build()
            .unwrap()
    }

    #[test]
    fn example_2_and_3_representation() {
        // F = ((f_D, Category, γ_all), (f_A, Price, γ_apt)), F(r_q) =
        // (2, 1, 1, 1, 1.75) per Example 3.
        let ds = example_dataset();
        let agg = example_aggregator();
        assert_eq!(agg.feature_dim(), 5);
        let rep = agg.aggregate(ds.objects());
        assert_eq!(rep.as_slice(), &[2.0, 1.0, 1.0, 1.0, 1.75]);
    }

    #[test]
    fn sum_aggregator_matches_example_2() {
        let ds = example_dataset();
        let agg = CompositeAggregator::builder(&example_schema())
            .sum("price", Selection::cat_equals(0, 0))
            .build()
            .unwrap();
        let rep = agg.aggregate(ds.objects());
        assert_eq!(rep.as_slice(), &[3.5]);
    }

    #[test]
    fn aggregate_region_uses_strict_containment() {
        let ds = example_dataset();
        let agg = example_aggregator();
        // A region whose boundary passes exactly through the object at
        // (1.0, 1.0): that object must not be counted.
        let region = Rect::new(1.0, 1.0, 2.0, 2.0);
        let rep = agg.aggregate_region(&ds, &region);
        assert_eq!(rep.as_slice(), &[1.0, 1.0, 1.0, 1.0, 1.5]);
    }

    #[test]
    fn empty_region_has_zero_representation() {
        let ds = example_dataset();
        let agg = example_aggregator();
        let rep = agg.aggregate_region(&ds, &Rect::new(100.0, 100.0, 101.0, 101.0));
        assert_eq!(rep.as_slice(), &[0.0; 5]);
    }

    #[test]
    fn stats_are_additive() {
        let ds = example_dataset();
        let agg = example_aggregator();
        let all = agg.stats_of(ds.objects());
        let first = agg.stats_of(ds.objects().take(2));
        let rest = agg.stats_of(ds.objects().skip(2));
        let summed: Vec<f64> = first.iter().zip(&rest).map(|(a, b)| a + b).collect();
        for (a, b) in all.iter().zip(&summed) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn builder_reports_unknown_attribute() {
        let err = CompositeAggregator::builder(&example_schema())
            .distribution("no_such_attribute", Selection::All)
            .build()
            .unwrap_err();
        assert!(matches!(err, AggregatorError::UnknownAttributeName(_)));
    }

    #[test]
    fn new_rejects_kind_mismatches_and_empty() {
        let schema = example_schema();
        let err = CompositeAggregator::new(
            &schema,
            vec![AggregatorSpec {
                kind: AggregatorKind::Distribution { attr: 1 },
                selection: Selection::All,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, AggregatorError::KindMismatch { .. }));

        let err = CompositeAggregator::new(
            &schema,
            vec![AggregatorSpec {
                kind: AggregatorKind::Average { attr: 0 },
                selection: Selection::All,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, AggregatorError::KindMismatch { .. }));

        let err = CompositeAggregator::new(&schema, vec![]).unwrap_err();
        assert!(matches!(err, AggregatorError::Empty));

        let err = CompositeAggregator::new(
            &schema,
            vec![AggregatorSpec {
                kind: AggregatorKind::Sum { attr: 9 },
                selection: Selection::All,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, AggregatorError::UnknownAttribute(9)));
    }

    #[test]
    fn dimension_labels_are_descriptive() {
        let agg = example_aggregator();
        let labels = agg.dimension_labels();
        assert_eq!(labels.len(), 5);
        assert_eq!(labels[0], "category=Apartment");
        assert_eq!(labels[4], "avg(price)");
    }

    #[test]
    fn feature_bounds_contain_all_intermediate_sets() {
        let ds = example_dataset();
        let agg = example_aggregator();
        let objects: Vec<&SpatialObject> = ds.objects().collect();
        // Mandatory set: first 2 objects; optional: remaining 3.
        let lower_stats = agg.stats_of(objects.iter().copied().take(2));
        let upper_stats = agg.stats_of(objects.iter().copied());
        let (lo, hi) = agg.feature_bounds(&lower_stats, &upper_stats);
        // Check every subset S with L ⊆ S ⊆ U (8 subsets of the optional 3).
        for mask in 0..8u32 {
            let subset: Vec<&SpatialObject> = objects
                .iter()
                .copied()
                .take(2)
                .chain(
                    objects
                        .iter()
                        .copied()
                        .skip(2)
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, o)| o),
                )
                .collect();
            let rep = agg.aggregate(subset);
            for d in 0..agg.feature_dim() {
                assert!(
                    lo[d] - 1e-9 <= rep[d] && rep[d] <= hi[d] + 1e-9,
                    "dim {d}: {} not within [{}, {}] for mask {mask}",
                    rep[d],
                    lo[d],
                    hi[d]
                );
            }
        }
    }

    #[test]
    fn feature_bounds_average_exact_cases() {
        let schema = example_schema();
        let agg = CompositeAggregator::builder(&schema)
            .average("price", Selection::All)
            .build()
            .unwrap();
        // No object can be selected: bounds collapse to 0.
        let zero = vec![0.0, 0.0];
        let (lo, hi) = agg.feature_bounds(&zero, &zero);
        assert_eq!((lo[0], hi[0]), (0.0, 0.0));
        // Mandatory == optional: exact average.
        let stats = vec![9.0, 3.0];
        let (lo, hi) = agg.feature_bounds(&stats, &stats);
        assert_eq!((lo[0], hi[0]), (3.0, 3.0));
        // Mandatory empty, optional non-empty: 0 must be attainable.
        let (lo, hi) = agg.feature_bounds(&zero, &stats);
        assert!(lo[0] <= 0.0 && hi[0] >= 3.0);
    }

    #[test]
    fn sum_bounds_handle_negative_values() {
        let schema = Schema::new(vec![AttributeDef::new(
            "delta",
            AttributeKind::numeric(-10.0, 10.0),
        )]);
        let agg = CompositeAggregator::builder(&schema)
            .sum("delta", Selection::All)
            .build()
            .unwrap();
        let mk = |v: f64| SpatialObject::new(0, Point::origin(), vec![AttrValue::Num(v)]);
        let objs = [mk(5.0), mk(-3.0), mk(2.0)];
        let lower_stats = agg.stats_of(objs.iter().take(1)); // mandatory: +5
        let upper_stats = agg.stats_of(objs.iter()); // all three
        let (lo, hi) = agg.feature_bounds(&lower_stats, &upper_stats);
        // Attainable sums: 5, 2, 7, 4 ⇒ bounds must cover [2, 7].
        assert!(lo[0] <= 2.0 + 1e-12);
        assert!(hi[0] >= 7.0 - 1e-12);
    }

    #[test]
    fn count_aggregator_counts_selected_objects() {
        let ds = example_dataset();
        let agg = CompositeAggregator::builder(&example_schema())
            .count(Selection::cat_equals(0, 0))
            .build()
            .unwrap();
        let rep = agg.aggregate(ds.objects());
        assert_eq!(rep.as_slice(), &[2.0]);
    }

    #[test]
    fn lower_bound_distance_wrapper_is_consistent() {
        let ds = example_dataset();
        let agg = example_aggregator();
        let query = agg.aggregate(ds.objects());
        let weights = Weights::uniform(agg.feature_dim());
        let lower_stats = agg.stats_of(ds.objects().take(3));
        let upper_stats = agg.stats_of(ds.objects());
        let lb = agg.lower_bound_distance(
            &query,
            &lower_stats,
            &upper_stats,
            &weights,
            DistanceMetric::L1,
        );
        // The full set is admissible and has distance 0, so the bound must
        // be 0 as well.
        assert_eq!(lb, 0.0);
        // Distance helper agrees with the free function.
        let d = agg.distance(&query, &query, &weights, DistanceMetric::L1);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn float_sum_aggregates_are_order_independent() {
        // Values chosen so plain `+=` summation visibly depends on the
        // accumulation order; the compensated `stats_of` must land every
        // permutation on the same bits.
        let schema = Schema::new(vec![AttributeDef::new(
            "delta",
            AttributeKind::numeric(-1e16, 1e16),
        )]);
        let agg = CompositeAggregator::builder(&schema)
            .sum("delta", Selection::All)
            .average("delta", Selection::All)
            .build()
            .unwrap();
        let values = [1e16, 3.25, -1e16, 1e8, 0.125, -1e8, 7.5, 1e12, -1e12];
        let mut objects: Vec<SpatialObject> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| SpatialObject::new(i as u64, Point::origin(), vec![AttrValue::Num(v)]))
            .collect();
        let reference = agg.stats_of(objects.iter());
        for rot in 0..objects.len() {
            objects.rotate_left(1);
            let forward = agg.stats_of(objects.iter());
            let backward = agg.stats_of(objects.iter().rev());
            for k in 0..agg.stats_dim() {
                assert_eq!(
                    forward[k].to_bits(),
                    reference[k].to_bits(),
                    "slot {k}, rotation {rot}"
                );
                assert_eq!(
                    backward[k].to_bits(),
                    reference[k].to_bits(),
                    "slot {k}, reversed rotation {rot}"
                );
            }
        }
        // The positive-sum slot holds the correctly rounded total (which a
        // plain left-to-right `+` chain misses by an ulp here).
        let mut expected = crate::CompensatedSum::new();
        for v in [1e16, 3.25, 1e8, 0.125, 7.5, 1e12] {
            expected.add(v);
        }
        assert_eq!(reference[0], expected.value());
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", AggregatorError::Empty).contains("at least one"));
        assert!(format!("{}", AggregatorError::UnknownAttribute(3)).contains('3'));
    }
}
