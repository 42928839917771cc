//! Offline stand-in for `serde`: marker traits implemented for every type,
//! so the workspace's derive annotations and bounds compile. Nothing here
//! serializes; the benchmark never reaches a serde path.
pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub trait DeserializeOwned {}
    impl<T> DeserializeOwned for T {}
}
