//! The JSON parser ([`benchjson::JsonValue::parse`]) for the documents the
//! workspace writes with `famg_prof::json::Json`: the `e2e` benchmark
//! reads its spec and run records through it, and famg-analyze reads its
//! famg-diag-v1 document back with it in its tests.

pub mod benchjson;
