//! The fingerprinted benchmark harness behind `rsmem bench`; see
//! [`harness`].

pub mod harness;
