//! Offline stand-in for `serde_derive`: both derives expand to nothing.
//! The `serde` shim's blanket impls satisfy every bound the derives would.
extern crate proc_macro;
use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
