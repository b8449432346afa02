//! The apartment-hunting scenario of the paper's Example 1.
//!
//! Run with `cargo run --example apartment_hunt --release`.
//!
//! A user who just moved to a new city wants a neighbourhood that (1) has a
//! restaurant, a supermarket and a bus stop, but not too many of them, (2)
//! has apartments whose average sale price fits the budget, and (3) is
//! small enough that everything is within walking distance.  The scenario
//! is expressed as a composite aggregator combining a category
//! distribution with an average price over apartments only, plus a
//! hand-crafted ("virtual") query representation.

use asrs_suite::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const APARTMENT: u32 = 0;
const SUPERMARKET: u32 = 1;
const RESTAURANT: u32 = 2;
const BUS_STOP: u32 = 3;

/// Builds a synthetic city of POIs with categories and apartment prices.
fn build_city(seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new(
            "category",
            AttributeKind::categorical_labeled(vec![
                "Apartment",
                "Supermarket",
                "Restaurant",
                "Bus stop",
            ]),
        ),
        // Price in units of 100k; only meaningful for apartments.
        AttributeDef::new("price", AttributeKind::numeric(0.0, 20.0)),
    ]);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = DatasetBuilder::new(schema);
    // Several neighbourhoods with different price levels and amenity mixes.
    let neighbourhoods: [(f64, f64, f64, f64); 4] = [
        (5.0, 5.0, 14.0, 0.6),   // expensive, amenity-rich
        (25.0, 8.0, 6.0, 0.5),   // affordable, amenity-rich
        (12.0, 25.0, 8.0, 0.15), // mid-priced, few amenities
        (30.0, 28.0, 4.5, 0.4),  // cheap, some amenities
    ];
    for &(cx, cy, price_level, amenity_rate) in &neighbourhoods {
        for _ in 0..220 {
            let x = cx + rng.gen_range(-4.0..4.0);
            let y = cy + rng.gen_range(-4.0..4.0);
            let roll: f64 = rng.gen();
            let (category, price) = if roll < amenity_rate {
                let cat = match rng.gen_range(0..3) {
                    0 => SUPERMARKET,
                    1 => RESTAURANT,
                    _ => BUS_STOP,
                };
                (cat, 0.0)
            } else {
                (
                    APARTMENT,
                    (price_level + rng.gen_range(-2.0..2.0)).clamp(0.5, 20.0),
                )
            };
            builder.push(x, y, vec![AttrValue::Cat(category), AttrValue::Num(price)]);
        }
    }
    builder
        .build()
        .expect("generated values respect the schema")
}

fn main() {
    let dataset = build_city(7);
    println!("synthetic city with {} POIs", dataset.len());

    // Aspects of interest: the category mix of the neighbourhood and the
    // average apartment price.
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .distribution("category", Selection::All)
        .average("price", Selection::cat_equals(0, APARTMENT))
        .build()
        .expect("aggregator matches the schema");

    // The ideal neighbourhood (a "virtual" query region): a handful of
    // apartments, one or two of each amenity, and an average price around
    // 600k.  Dimensions: [#apartment, #supermarket, #restaurant, #bus stop,
    // avg price].
    let target = FeatureVector::new(vec![12.0, 2.0, 2.0, 1.0, 6.0]);
    // The price dimension is what the user cares about most.
    let weights = Weights::new(vec![0.3, 1.0, 1.0, 1.0, 2.0]);
    let query = AsrsQuery::new(RegionSize::new(6.0, 6.0), target, weights);

    // Submit through the engine: no index here, so the planner falls back
    // to DS-Search — `plan()` explains exactly that.
    let engine = AsrsEngine::builder(dataset, aggregator)
        .build()
        .expect("valid configuration");
    let request = QueryRequest::similar(query.clone());
    println!("{}", engine.plan(&request).expect("plannable").explain());
    let response = engine.submit(&request).unwrap();
    let result = response.best().expect("similar yields a best region");

    let labels = engine.aggregator().dimension_labels();
    println!("\nbest neighbourhood: {}", result.region);
    println!("distance to the ideal: {:.3}", result.distance);
    println!("its profile:");
    for (label, value) in labels.iter().zip(result.representation.iter()) {
        println!("  {label:<22} {value:8.2}");
    }

    // Compare against the sweep-line baseline, a standalone solver over
    // the same dataset and aggregator.
    let (base_ds, base_agg) = (engine.dataset(), engine.aggregator());
    let baseline = SweepBase::new(&base_ds, &base_agg);
    let base_result = baseline.search(&query).unwrap();
    println!(
        "\nsweep-line baseline distance: {:.3} (DS-Search took {:?})",
        base_result.distance, response.stats.elapsed
    );
    assert!((base_result.distance - result.distance).abs() < 1e-6);
}
