//! Offline stand-in for `rayon`: every "parallel" iterator runs on the
//! calling thread. `Par<I>` is an `Iterator` and also has inherent
//! `map`/`filter`/`enumerate`/`fold`/`reduce` with rayon's signatures
//! (inherent methods win over `Iterator`'s), so rayon-style chains
//! compile unchanged. Times measured through this shim are one core's.
pub struct Par<I>(I);

impl<I: Iterator> Iterator for Par<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.0.next()
    }
}

impl<I: Iterator> Par<I> {
    pub fn map<B, F: FnMut(I::Item) -> B>(self, f: F) -> Par<std::iter::Map<I, F>> {
        Par(self.0.map(f))
    }

    pub fn filter<P: FnMut(&I::Item) -> bool>(self, p: P) -> Par<std::iter::Filter<I, P>> {
        Par(self.0.filter(p))
    }

    pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
        Par(self.0.enumerate())
    }

    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }

    /// rayon's `fold` yields one accumulator per split; sequentially there
    /// is exactly one.
    pub fn fold<T, ID: Fn() -> T, F: FnMut(T, I::Item) -> T>(
        self,
        identity: ID,
        op: F,
    ) -> Par<std::iter::Once<T>> {
        Par(std::iter::once(self.0.fold(identity(), op)))
    }

    pub fn reduce<ID: Fn() -> I::Item, F: FnMut(I::Item, I::Item) -> I::Item>(
        self,
        identity: ID,
        op: F,
    ) -> I::Item {
        self.0.fold(identity(), op)
    }
}

pub mod iter {
    pub use super::Par;

    pub trait IntoParallelIterator {
        type Iter: Iterator<Item = Self::Item>;
        type Item;
        fn into_par_iter(self) -> Par<Self::Iter>;
    }

    impl<T: IntoIterator> IntoParallelIterator for T {
        type Iter = T::IntoIter;
        type Item = T::Item;

        fn into_par_iter(self) -> Par<T::IntoIter> {
            Par(self.into_iter())
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator;
        fn par_iter(&'a self) -> Par<Self::Iter>;
    }

    impl<'a, T: 'a + ?Sized> IntoParallelRefIterator<'a> for T
    where
        &'a T: IntoIterator,
    {
        type Iter = <&'a T as IntoIterator>::IntoIter;

        fn par_iter(&'a self) -> Par<Self::Iter> {
            Par(self.into_iter())
        }
    }

    pub trait ParallelBridge: Iterator + Sized {
        fn par_bridge(self) -> Par<Self> {
            Par(self)
        }
    }

    impl<I: Iterator> ParallelBridge for I {}
}

pub mod slice {
    use super::Par;

    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
            Par(self.chunks_mut(size))
        }
    }

    pub trait ParallelSlice<T> {
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>> {
            Par(self.chunks(size))
        }
    }
}

pub mod prelude {
    pub use super::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelBridge};
    pub use super::slice::{ParallelSlice, ParallelSliceMut};
}
