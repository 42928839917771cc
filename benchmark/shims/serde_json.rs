//! Offline stand-in for `serde_json`: every call returns `Err`. The
//! benchmark writes its JSON by hand and must never reach these.
use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is stubbed out in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_vec<T: ?Sized>(_value: &T) -> Result<Vec<u8>> {
    Err(Error)
}

pub fn to_vec_pretty<T: ?Sized>(_value: &T) -> Result<Vec<u8>> {
    Err(Error)
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    Err(Error)
}

pub fn from_slice<T>(_v: &[u8]) -> Result<T> {
    Err(Error)
}
