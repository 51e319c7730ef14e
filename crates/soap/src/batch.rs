//! Multi-call batches: N sub-calls, one HTTP request.
//!
//! A fine-grained PortType like `getPR` pays one SOAP-over-HTTP round trip
//! per call; a federated gateway fanning out to eight Execution instances on
//! one host pays eight. A batch amortizes that: each [`BatchEntry`] names a
//! target service path, a method, and ordinary RPC parameters, and the whole
//! list rides one exchange under one shared call context. The PPGB frames in
//! [`crate::wire`] carry batches both buffered (`POST /ogsa/binary`) and as
//! interleaved streams (`POST /ogsa/batch-stream`).
//!
//! Outcomes are *per entry* ([`BatchOutcome`]): one sub-call running out of
//! budget or hitting a bad parameter never poisons its neighbours, which is
//! what lets the gateway keep its partial-result semantics under batching.

use crate::fault::Fault;
use crate::value::Value;

/// One sub-call of a multi-call batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Target service path on the receiving container
    /// (e.g. `/ogsa/services/psu-app/instances/3`).
    pub path: String,
    /// Operation name.
    pub method: String,
    /// Call namespace, if one applies.
    pub namespace: Option<String>,
    /// `(name, value)` parameters in call order.
    pub params: Vec<(String, Value)>,
}

impl BatchEntry {
    /// Build an entry from borrowed parameter pairs.
    pub fn new(
        path: impl Into<String>,
        method: impl Into<String>,
        namespace: impl Into<String>,
        params: &[(&str, Value)],
    ) -> BatchEntry {
        BatchEntry {
            path: path.into(),
            method: method.into(),
            namespace: Some(namespace.into()),
            params: params
                .iter()
                .map(|(n, v)| ((*n).to_owned(), v.clone()))
                .collect(),
        }
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// What one sub-call produced: a return value, or its own fault.
pub type BatchOutcome = std::result::Result<Value, Fault>;
