//! Dataset mutations: the delta log a generational engine applies.
//!
//! A [`Mutation`] is a serializable description of one dataset change —
//! append an object, remove an object by id, or expire an object whose TTL
//! lapsed (an expiry is a removal whose *cause* is the clock rather than a
//! caller).  The engine layer in `asrs-core` applies mutations to a
//! [`Dataset`](crate::Dataset) one generation at a time, its write-ahead
//! log persists them, and tests replay a mutation sequence onto a fresh
//! dataset to prove rebuild equivalence.
//!
//! Order matters: replaying the same mutations in the same order onto the
//! same seed dataset produces a byte-identical object vector (appends go to
//! the tail, removals shift the suffix left without reordering), which is
//! the foundation of the engine's mutated-vs-rebuilt parity guarantee.

use crate::SpatialObject;
use serde::{Deserialize, Serialize};

/// One dataset change, as a plain serializable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Append `object` at the tail of the dataset.
    Append {
        /// The object to add; its `id` must be unique in the dataset.
        object: SpatialObject,
    },
    /// Remove the object with the given id.
    Remove {
        /// Id of the object to remove.
        id: u64,
    },
    /// Remove the object with the given id because its TTL lapsed.
    /// Structurally identical to [`Mutation::Remove`]; kept distinct so the
    /// log shows *why* an object left the dataset.
    Expire {
        /// Id of the expired object.
        id: u64,
    },
}

impl Mutation {
    /// A short name for counters and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Mutation::Append { .. } => "append",
            Mutation::Remove { .. } => "remove",
            Mutation::Expire { .. } => "expire",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_geo::Point;

    fn obj(id: u64) -> SpatialObject {
        SpatialObject::new(id, Point::new(id as f64, 0.0), vec![])
    }

    #[test]
    fn mutations_round_trip_through_json() {
        for m in [
            Mutation::Append { object: obj(7) },
            Mutation::Remove { id: 7 },
            Mutation::Expire { id: 9 },
        ] {
            let json = serde::json::to_string(&m);
            let back: Mutation = serde::json::from_str(&json).unwrap();
            assert_eq!(back, m);
        }
    }
}
