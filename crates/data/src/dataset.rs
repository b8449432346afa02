//! Datasets: collections of spatial objects sharing a schema.
//!
//! # Chunked persistent columns
//!
//! A [`Dataset`] stores its objects as a list of immutable, `Arc`-shared
//! *chunks* rather than one flat vector.  Cloning a dataset therefore
//! costs one reference count per chunk — never a byte copy of the
//! objects — which is what lets the generational mutation path assemble a
//! successor dataset per commit batch without copying the whole column:
//!
//! * [`Dataset::append`] pushes into the tail chunk when it is uniquely
//!   owned and under the chunk-size cap, copies only the (bounded) tail
//!   chunk when it is shared, and starts a fresh chunk once the tail is
//!   full — the large seed chunks are never touched;
//! * [`Dataset::remove_by_id`] copy-on-writes only the chunk owning the
//!   removed object.
//!
//! The chunk layout is an implementation detail: equality
//! ([`PartialEq`]), iteration order, indexing ([`Dataset::object`]) and
//! the serialized form (`{schema, objects}`) are all layout-independent,
//! so two datasets holding the same objects in the same order compare and
//! serialize identically no matter how their mutation histories chunked
//! them.

use crate::{AttrValue, Schema, SchemaError, SpatialObject};
use asrs_geo::{Point, Rect};
use serde::{map_get, DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// Once the tail chunk reaches this many objects, appends start a fresh
/// chunk instead of growing (or copy-on-writing) it.  The cap bounds the
/// bytes a mutation batch can copy: a shared tail is cloned at most this
/// large, and everything older is shared by reference.
const CHUNK_CAP: usize = 1024;

/// An immutable collection of spatial objects with a common schema.
///
/// `Dataset` is the input `O` of the ASRS problem (Definition 4).  It owns
/// its objects; the search algorithms hold a shared reference.  Objects
/// live in `Arc`-shared chunks (see the module documentation), so cloning
/// a dataset is cheap and mutation helpers copy at most one chunk.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    chunks: Vec<Arc<Vec<SpatialObject>>>,
    /// `starts[i]` is the dataset position of chunk `i`'s first object;
    /// kept strictly increasing with `starts[0] == 0` when non-empty.
    starts: Vec<usize>,
    len: usize,
    bbox_cache: Option<Rect>,
}

impl Dataset {
    /// Creates a dataset, validating every object against the schema.
    pub fn new(schema: Schema, objects: Vec<SpatialObject>) -> Result<Self, SchemaError> {
        for o in &objects {
            schema.validate_values(&o.values)?;
        }
        Ok(Self::new_unchecked(schema, objects))
    }

    /// Creates a dataset without validating objects.
    ///
    /// Intended for generators that construct values known to conform to the
    /// schema; external inputs should use [`Dataset::new`].
    pub fn new_unchecked(schema: Schema, objects: Vec<SpatialObject>) -> Self {
        let len = objects.len();
        let (chunks, starts) = if objects.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            // The seed column is one chunk: it is never copied again
            // (appends grow past it, removals copy-on-write at most one
            // chunk), so splitting it here would only add indirection.
            (vec![Arc::new(objects)], vec![0])
        };
        let mut ds = Self {
            schema,
            chunks,
            starts,
            len,
            bbox_cache: None,
        };
        ds.bbox_cache = ds.compute_bbox();
        ds
    }

    /// The dataset schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Iterates over the objects in dataset (insertion) order.
    #[inline]
    pub fn objects(&self) -> impl Iterator<Item = &SpatialObject> + Clone + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the dataset holds no object.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The object with position `idx` in the dataset.
    #[inline]
    pub fn object(&self, idx: usize) -> &SpatialObject {
        if let [chunk] = self.chunks.as_slice() {
            return &chunk[idx];
        }
        let c = match self.starts.binary_search(&idx) {
            Ok(c) => c,
            Err(c) => c - 1,
        };
        &self.chunks[c][idx - self.starts[c]]
    }

    /// Appends `object` at the tail of the dataset, validating it against
    /// the schema.
    ///
    /// Appending preserves the order of existing objects, so a dataset
    /// grown by appends is byte-identical (objects and their order) to a
    /// dataset constructed from the final object vector in one go — the
    /// property the generational engine's rebuild-equivalence guarantee
    /// rests on.  The bounding box is maintained incrementally (a union
    /// with the new location, no rescan).
    ///
    /// Cost: a fresh or uniquely owned tail chunk grows in place; a tail
    /// chunk shared with another dataset clone is copied, but only up to
    /// the chunk-size cap — the chunks before it are shared untouched.
    ///
    /// Id uniqueness is *not* checked here (a dataset is allowed to carry
    /// duplicate ids, and several seed datasets do); the engine layer
    /// enforces uniqueness for mutable engines, where removal-by-id must be
    /// unambiguous.
    pub fn append(&mut self, object: SpatialObject) -> Result<(), SchemaError> {
        self.schema.validate_values(&object.values)?;
        let location = object.location;
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_CAP => {
                if let Some(tail) = Arc::get_mut(tail) {
                    tail.push(object);
                } else {
                    // Shared tail: copy-on-write the one (bounded) chunk.
                    let mut copy = Vec::with_capacity((tail.len() + 1).min(CHUNK_CAP));
                    copy.extend_from_slice(tail);
                    copy.push(object);
                    *tail = Arc::new(copy);
                }
            }
            _ => {
                self.starts.push(self.len);
                self.chunks.push(Arc::new(vec![object]));
            }
        }
        self.len += 1;
        self.bbox_cache = Some(match self.bbox_cache {
            Some(bbox) => Rect::new(
                bbox.min_x.min(location.x),
                bbox.min_y.min(location.y),
                bbox.max_x.max(location.x),
                bbox.max_y.max(location.y),
            ),
            None => Rect::new(location.x, location.y, location.x, location.y),
        });
        Ok(())
    }

    /// Removes the first object whose id equals `id`, returning it, or
    /// `None` when no object matches.
    ///
    /// Removal preserves the relative order of the remaining objects, so
    /// the surviving object sequence equals the one a fresh dataset built
    /// without the removed object would hold — again the
    /// rebuild-equivalence property.  Only the chunk owning the removed
    /// object is copied; the bounding box is recomputed only when the
    /// removed location sat on the old boundary.
    pub fn remove_by_id(&mut self, id: u64) -> Option<SpatialObject> {
        let (chunk_idx, inner_idx) = self
            .chunks
            .iter()
            .enumerate()
            .find_map(|(ci, chunk)| chunk.iter().position(|o| o.id == id).map(|oi| (ci, oi)))?;
        let removed = if self.chunks[chunk_idx].len() == 1 {
            let chunk = self.chunks.remove(chunk_idx);
            chunk.first().cloned()?
        } else {
            let chunk = Arc::make_mut(&mut self.chunks[chunk_idx]);
            chunk.remove(inner_idx)
        };
        self.rebuild_starts();
        self.len -= 1;
        let on_boundary = self.bbox_cache.is_some_and(|bbox| {
            let p = removed.location;
            p.x == bbox.min_x || p.x == bbox.max_x || p.y == bbox.min_y || p.y == bbox.max_y
        });
        if on_boundary {
            self.bbox_cache = self.compute_bbox();
        }
        Some(removed)
    }

    /// Recomputes the `starts` prefix sums from the chunk lengths — the
    /// one authoritative derivation, run after any structural edit.
    fn rebuild_starts(&mut self) {
        let mut at = 0;
        self.starts.clear();
        for chunk in &self.chunks {
            self.starts.push(at);
            at += chunk.len();
        }
    }

    /// Returns `true` when any object carries `id`.
    pub fn contains_id(&self, id: u64) -> bool {
        self.objects().any(|o| o.id == id)
    }

    /// The smallest id strictly greater than every id in the dataset
    /// (`0` when empty) — a convenient id source for appended objects.
    pub fn next_id(&self) -> u64 {
        self.objects().map(|o| o.id).max().map_or(0, |max| max + 1)
    }

    fn compute_bbox(&self) -> Option<Rect> {
        Rect::mbr_of_points(self.objects().map(|o| o.location))
    }

    /// The minimum bounding rectangle of all object locations, or `None` for
    /// an empty dataset.
    #[inline]
    pub fn bounding_box(&self) -> Option<Rect> {
        self.bbox_cache
    }

    /// The bounding box, expanded so that it has strictly positive extent on
    /// both axes (degenerate axes are padded by `pad`).  Useful for building
    /// grids over datasets whose objects are collinear.
    pub fn padded_bounding_box(&self, pad: f64) -> Option<Rect> {
        let b = self.bounding_box()?;
        let dx = if b.width() > 0.0 { 0.0 } else { pad };
        let dy = if b.height() > 0.0 { 0.0 } else { pad };
        Some(b.expanded(dx, dy))
    }

    /// Like [`Dataset::padded_bounding_box`], but the pad for a degenerate
    /// axis scales with the dataset's extent (`relative` × the larger axis
    /// extent), so micro-extent datasets — a lat/lon neighbourhood spanning
    /// ~0.01° — are not drowned in absolute padding.  `absolute` is the
    /// fallback pad used only when *both* axes are degenerate (a
    /// single-point dataset has no extent to scale from).
    pub fn relative_padded_bounding_box(&self, relative: f64, absolute: f64) -> Option<Rect> {
        let b = self.bounding_box()?;
        let scale = b.width().max(b.height());
        let pad = if scale > 0.0 {
            relative * scale
        } else {
            absolute
        };
        self.padded_bounding_box(pad)
    }

    /// Returns the objects strictly inside `region` (open containment, as in
    /// Lemma 1 of the paper).
    pub fn objects_strictly_in(&self, region: &Rect) -> Vec<&SpatialObject> {
        self.objects()
            .filter(|o| region.strictly_contains_point(&o.location))
            .collect()
    }

    /// Returns the objects inside `region` including its boundary.
    pub fn objects_in(&self, region: &Rect) -> Vec<&SpatialObject> {
        self.objects()
            .filter(|o| region.contains_point(&o.location))
            .collect()
    }

    /// Counts the objects strictly inside `region`.
    pub fn count_strictly_in(&self, region: &Rect) -> usize {
        self.objects()
            .filter(|o| region.strictly_contains_point(&o.location))
            .count()
    }

    /// Returns a dataset containing only the first `n` objects (the paper's
    /// "extract 1 million objects from Tweet" style of sub-sampling).
    pub fn take_prefix(&self, n: usize) -> Dataset {
        let objects: Vec<SpatialObject> = self.objects().take(n).cloned().collect();
        Dataset::new_unchecked(self.schema.clone(), objects)
    }

    /// Returns a new dataset with every location snapped to a grid of the
    /// given quantum (mimicking the finite GPS accuracy of real data; see
    /// Definition 7).
    pub fn quantized(&self, quantum: f64) -> Dataset {
        assert!(quantum > 0.0, "quantum must be positive");
        let objects = self
            .objects()
            .map(|o| {
                let x = (o.location.x / quantum).round() * quantum;
                let y = (o.location.y / quantum).round() * quantum;
                SpatialObject::new(o.id, Point::new(x, y), o.values.clone())
            })
            .collect();
        Dataset::new_unchecked(self.schema.clone(), objects)
    }

    /// Iterates over `(index, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SpatialObject)> {
        self.objects().enumerate()
    }

    /// Collects the distinct values of a categorical attribute that actually
    /// occur in the dataset.
    pub fn observed_categories(&self, attr: usize) -> Vec<u32> {
        let mut seen: Vec<u32> = self.objects().filter_map(|o| o.cat_value(attr)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    /// Computes the observed minimum and maximum of a numeric attribute.
    pub fn numeric_extent(&self, attr: usize) -> Option<(f64, f64)> {
        let mut it = self.objects().filter_map(|o| o.num_value(attr));
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }
}

/// Equality is chunk-layout independent: two datasets are equal when they
/// hold the same schema and the same objects in the same order (and hence
/// the same bounding box), no matter how mutation history chunked them.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.schema == other.schema && self.objects().eq(other.objects())
    }
}

/// Serializes as `{schema, objects}` — the flat-vector shape the derive
/// produced before chunking, so persisted/JSON forms are unchanged.
impl Serialize for Dataset {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("schema".to_string(), self.schema.to_value()),
            (
                "objects".to_string(),
                Value::Seq(self.objects().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl Deserialize for Dataset {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("map", "Dataset", v))?;
        let schema = Schema::from_value(map_get(entries, "schema"))?;
        let objects = Vec::<SpatialObject>::from_value(map_get(entries, "objects"))?;
        Ok(Dataset::new_unchecked(schema, objects))
    }
}

/// Convenience builder used by tests and examples to assemble small datasets
/// by hand.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    schema: Schema,
    objects: Vec<SpatialObject>,
}

impl DatasetBuilder {
    /// Starts a builder with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            objects: Vec::new(),
        }
    }

    /// Adds an object at `(x, y)` with the given values.
    pub fn push(&mut self, x: f64, y: f64, values: Vec<AttrValue>) -> &mut Self {
        let id = self.objects.len() as u64;
        self.objects
            .push(SpatialObject::new(id, Point::new(x, y), values));
        self
    }

    /// Finishes the builder, validating the objects.
    pub fn build(self) -> Result<Dataset, SchemaError> {
        Dataset::new(self.schema, self.objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttributeDef, AttributeKind};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("category", AttributeKind::categorical(3)),
            AttributeDef::new("price", AttributeKind::numeric(0.0, 100.0)),
        ])
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(schema());
        b.push(0.0, 0.0, vec![AttrValue::Cat(0), AttrValue::Num(10.0)]);
        b.push(1.0, 1.0, vec![AttrValue::Cat(1), AttrValue::Num(20.0)]);
        b.push(2.0, 5.0, vec![AttrValue::Cat(2), AttrValue::Num(30.0)]);
        b.push(4.0, 3.0, vec![AttrValue::Cat(0), AttrValue::Num(40.0)]);
        b.build().unwrap()
    }

    #[test]
    fn new_validates_objects() {
        let bad = vec![SpatialObject::new(
            0,
            Point::new(0.0, 0.0),
            vec![AttrValue::Cat(9), AttrValue::Num(1.0)],
        )];
        assert!(Dataset::new(schema(), bad).is_err());
    }

    #[test]
    fn bounding_box_covers_all_objects() {
        let ds = dataset();
        let bbox = ds.bounding_box().unwrap();
        assert_eq!(bbox, Rect::new(0.0, 0.0, 4.0, 5.0));
        for o in ds.objects() {
            assert!(bbox.contains_point(&o.location));
        }
        assert!(Dataset::new_unchecked(schema(), vec![])
            .bounding_box()
            .is_none());
    }

    #[test]
    fn padded_bounding_box_fixes_degenerate_axes() {
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(1.0, 2.0, vec![]);
        b.push(1.0, 9.0, vec![]);
        let ds = b.build().unwrap();
        let padded = ds.padded_bounding_box(0.5).unwrap();
        assert!(padded.width() > 0.0);
        assert_eq!(padded.height(), 7.0);
    }

    #[test]
    fn relative_padding_scales_with_the_extent() {
        // A micro-extent dataset: ~0.01 wide, collinear in y.  An absolute
        // pad of 1.0 would make the box 200x taller than the data is wide;
        // the relative pad stays in proportion.
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(10.0, 5.0, vec![]);
        b.push(10.01, 5.0, vec![]);
        let ds = b.build().unwrap();
        let padded = ds.relative_padded_bounding_box(0.5, 1.0).unwrap();
        assert!((padded.width() - 0.01).abs() < 1e-12);
        assert!(
            (padded.height() - 0.01).abs() < 1e-12,
            "{}",
            padded.height()
        );

        // Healthy extents are untouched.
        let ds = dataset();
        assert_eq!(
            ds.relative_padded_bounding_box(0.5, 1.0).unwrap(),
            ds.bounding_box().unwrap()
        );

        // A single point has no extent to scale from: absolute fallback.
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(3.0, 4.0, vec![]);
        let ds = b.build().unwrap();
        let padded = ds.relative_padded_bounding_box(0.5, 1.0).unwrap();
        assert_eq!(padded.width(), 2.0);
        assert_eq!(padded.height(), 2.0);

        assert!(Dataset::new_unchecked(Schema::empty(), vec![])
            .relative_padded_bounding_box(0.5, 1.0)
            .is_none());
    }

    #[test]
    fn region_queries_use_strict_and_closed_containment() {
        let ds = dataset();
        let region = Rect::new(0.0, 0.0, 2.0, 5.0);
        // Strict: objects on the boundary are excluded.
        assert_eq!(ds.count_strictly_in(&region), 1);
        assert_eq!(ds.objects_strictly_in(&region).len(), 1);
        // Closed: boundary objects count.
        assert_eq!(ds.objects_in(&region).len(), 3);
    }

    #[test]
    fn take_prefix_preserves_schema() {
        let ds = dataset();
        let small = ds.take_prefix(2);
        assert_eq!(small.len(), 2);
        assert_eq!(small.schema(), ds.schema());
        assert_eq!(ds.take_prefix(100).len(), 4);
    }

    #[test]
    fn quantized_snaps_coordinates() {
        let mut b = DatasetBuilder::new(Schema::empty());
        b.push(0.123456, 0.98765, vec![]);
        let ds = b.build().unwrap().quantized(0.01);
        let o = ds.object(0);
        assert!((o.x() - 0.12).abs() < 1e-12);
        assert!((o.y() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn observed_categories_and_numeric_extent() {
        let ds = dataset();
        assert_eq!(ds.observed_categories(0), vec![0, 1, 2]);
        assert_eq!(ds.numeric_extent(1), Some((10.0, 40.0)));
        assert_eq!(ds.numeric_extent(0), None);
    }

    #[test]
    fn append_validates_and_grows_the_bounding_box() {
        let mut ds = dataset();
        let bad = SpatialObject::new(
            9,
            Point::new(0.0, 0.0),
            vec![AttrValue::Cat(9), AttrValue::Num(1.0)],
        );
        assert!(ds.append(bad).is_err());
        assert_eq!(ds.len(), 4, "a rejected append must not change anything");

        let outside = SpatialObject::new(
            9,
            Point::new(-3.0, 7.0),
            vec![AttrValue::Cat(1), AttrValue::Num(5.0)],
        );
        ds.append(outside).unwrap();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.bounding_box().unwrap(), Rect::new(-3.0, 0.0, 4.0, 7.0));
        assert_eq!(ds.next_id(), 10);
        assert!(ds.contains_id(9));

        // Appending from empty seeds the box at the point itself.
        let mut empty = Dataset::new_unchecked(Schema::empty(), vec![]);
        empty
            .append(SpatialObject::new(0, Point::new(2.0, 3.0), vec![]))
            .unwrap();
        assert_eq!(empty.bounding_box().unwrap(), Rect::new(2.0, 3.0, 2.0, 3.0));
    }

    #[test]
    fn remove_by_id_preserves_order_and_shrinks_the_box() {
        let mut ds = dataset();
        // Object 2 at (2, 5) defines max_y.
        let removed = ds.remove_by_id(2).unwrap();
        assert_eq!(removed.location, Point::new(2.0, 5.0));
        assert_eq!(ds.bounding_box().unwrap(), Rect::new(0.0, 0.0, 4.0, 3.0));
        let ids: Vec<u64> = ds.iter().map(|(_, o)| o.id).collect();
        assert_eq!(ids, vec![0, 1, 3], "remaining order must be preserved");
        assert!(ds.remove_by_id(2).is_none());
        assert!(!ds.contains_id(2));
    }

    #[test]
    fn mutated_dataset_equals_a_fresh_rebuild() {
        // The rebuild-equivalence property: the same mutation sequence
        // applied to a dataset leaves an object sequence identical to one
        // constructed directly from the surviving objects.
        let mut mutated = dataset();
        mutated
            .append(SpatialObject::new(
                10,
                Point::new(1.5, 2.5),
                vec![AttrValue::Cat(2), AttrValue::Num(55.0)],
            ))
            .unwrap();
        mutated.remove_by_id(1).unwrap();
        mutated
            .append(SpatialObject::new(
                11,
                Point::new(3.5, 0.5),
                vec![AttrValue::Cat(0), AttrValue::Num(5.0)],
            ))
            .unwrap();

        let rebuilt = Dataset::new(
            mutated.schema().clone(),
            mutated.objects().cloned().collect(),
        )
        .unwrap();
        assert_eq!(&rebuilt, &mutated);
        assert_eq!(rebuilt.bounding_box(), mutated.bounding_box());
    }

    #[test]
    fn iter_enumerates_in_order() {
        let ds = dataset();
        let ids: Vec<u64> = ds.iter().map(|(_, o)| o.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(!ds.is_empty());
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn clones_share_chunks_and_appends_copy_at_most_the_tail() {
        // A cloned dataset shares every chunk by reference; appending to
        // the clone leaves the original untouched (copy-on-write).
        let ds = dataset();
        let mut clone = ds.clone();
        clone
            .append(SpatialObject::new(
                7,
                Point::new(0.5, 0.5),
                vec![AttrValue::Cat(1), AttrValue::Num(1.0)],
            ))
            .unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(clone.len(), 5);
        let ids: Vec<u64> = ds.objects().map(|o| o.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);

        // Removal from a clone copies only the owning chunk.
        let mut removing = ds.clone();
        removing.remove_by_id(0).unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(removing.len(), 3);
        assert_eq!(removing.object(0).id, 1);
    }

    #[test]
    fn chunk_layout_does_not_affect_equality_or_indexing() {
        // Grow a dataset object-by-object through cloned snapshots (the
        // generational engine's access pattern), then compare with a flat
        // single-chunk build of the same objects.
        let mut grown = Dataset::new_unchecked(Schema::empty(), vec![]);
        for i in 0..(super::CHUNK_CAP * 2 + 17) {
            let snapshot = grown.clone(); // force shared tails
            grown
                .append(SpatialObject::new(
                    i as u64,
                    Point::new(i as f64, -(i as f64)),
                    vec![],
                ))
                .unwrap();
            drop(snapshot);
        }
        let flat = Dataset::new_unchecked(Schema::empty(), grown.objects().cloned().collect());
        assert_eq!(grown, flat);
        assert!(grown.chunks.len() > 1, "growth must have chunked");
        assert_eq!(flat.chunks.len(), 1);
        for idx in [
            0,
            1,
            super::CHUNK_CAP - 1,
            super::CHUNK_CAP,
            grown.len() - 1,
        ] {
            assert_eq!(grown.object(idx).id, flat.object(idx).id);
        }
        assert_eq!(grown.bounding_box(), flat.bounding_box());

        // Removal keeps positions consistent across the chunk boundary.
        let mut pruned = grown.clone();
        pruned.remove_by_id(3).unwrap();
        assert_eq!(pruned.object(3).id, 4);
        assert_eq!(
            pruned.object(super::CHUNK_CAP).id,
            (super::CHUNK_CAP + 1) as u64
        );
    }

    #[test]
    fn serde_round_trip_preserves_objects_and_box() {
        let ds = dataset();
        let back = Dataset::from_value(&ds.to_value()).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back.bounding_box(), ds.bounding_box());
    }
}
