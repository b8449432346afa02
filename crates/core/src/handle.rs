//! [`EngineHandle`]: the name concurrent callers give the engine.

/// The engine itself: [`AsrsEngine`](crate::AsrsEngine) is a cheap
/// `Clone + Send + Sync` value over its shared generational state, so a
/// handle is just a clone ([`AsrsEngine::handle`](crate::AsrsEngine::handle)).
/// The name stays for callers that spell out the concurrent-use role:
///
/// ```
/// use asrs_core::{AsrsEngine, QueryRequest};
/// use asrs_aggregator::{CompositeAggregator, Selection};
/// use asrs_data::gen::UniformGenerator;
/// use asrs_geo::Rect;
///
/// let dataset = UniformGenerator::default().generate(300, 7);
/// let aggregator = CompositeAggregator::builder(dataset.schema())
///     .distribution("category", Selection::All)
///     .build()
///     .unwrap();
/// let engine = AsrsEngine::builder(dataset, aggregator)
///     .build_index(16, 16)
///     .build()
///     .unwrap();
///
/// let query = engine
///     .query_from_example(&Rect::new(10.0, 10.0, 25.0, 25.0))
///     .unwrap();
/// let workers: Vec<_> = (0..4)
///     .map(|_| {
///         let engine = engine.clone();
///         let query = query.clone();
///         std::thread::spawn(move || {
///             engine.submit(&QueryRequest::similar(query)).unwrap()
///         })
///     })
///     .collect();
/// for worker in workers {
///     let response = worker.join().unwrap();
///     assert!(response.best().unwrap().distance <= 1e-9);
/// }
/// ```
pub type EngineHandle = crate::AsrsEngine;

#[cfg(test)]
mod tests {
    use crate::engine::AsrsEngine;
    use crate::request::{QueryOutcome, QueryRequest};
    use asrs_aggregator::{CompositeAggregator, Selection};
    use asrs_data::gen::UniformGenerator;
    use asrs_geo::Rect;

    fn engine() -> AsrsEngine {
        let ds = UniformGenerator::default().generate(250, 9);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        AsrsEngine::builder(ds, agg)
            .build_index(16, 16)
            .build()
            .unwrap()
    }

    #[test]
    fn handle_is_cheap_to_clone_and_thread_safe() {
        fn assert_handle_bounds<T: Clone + Send + Sync + 'static>() {}
        assert_handle_bounds::<AsrsEngine>();

        let engine = engine();
        let handle = engine.clone();
        let query = handle
            .query_from_example(&Rect::new(5.0, 5.0, 20.0, 20.0))
            .unwrap();
        let results: Vec<_> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let handle = handle.clone();
                    let query = query.clone();
                    scope.spawn(move || handle.submit(&QueryRequest::similar(query)).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        // Concurrent submissions over the shared core agree exactly.
        for response in &results {
            assert_eq!(response.backend, results[0].backend);
            match (&response.outcome, &results[0].outcome) {
                (QueryOutcome::Best(a), QueryOutcome::Best(b)) => {
                    assert_eq!(a.anchor, b.anchor);
                    assert_eq!(a.distance, b.distance);
                }
                _ => panic!("similar requests produce Best outcomes"),
            }
        }
    }

    #[test]
    fn handle_outlives_the_engine() {
        let handle = engine().clone();
        // The original was dropped above; the Arc keeps the shared state
        // alive.
        assert_eq!(handle.dataset().len(), 250);
        assert!(handle.statistics().index.is_some());
        let query = handle
            .query_from_example(&Rect::new(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        assert!(handle.submit(&QueryRequest::similar(query)).is_ok());
    }

    #[test]
    fn mutations_through_a_handle_are_visible_to_every_clone() {
        let engine = engine();
        let writer = engine.clone();
        let reader = engine.clone();
        assert_eq!(reader.generation(), 0);
        let id = writer.dataset().next_id();
        let template = writer.dataset().object(0).clone();
        let receipt = writer
            .append(asrs_data::SpatialObject::new(
                id,
                asrs_geo::Point::new(50.0, 50.0),
                template.values.clone(),
            ))
            .unwrap();
        assert_eq!(receipt.generation, 1);
        assert_eq!(reader.generation(), 1, "clones see the new generation");
        assert_eq!(engine.generation(), 1, "the original does too");
        assert_eq!(reader.dataset().len(), 251);
        assert!(reader.mutation_stats().appends == 1);
    }
}
