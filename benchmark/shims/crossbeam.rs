//! Offline stand-in for `crossbeam`: declared by `viz-core`, used nowhere.
