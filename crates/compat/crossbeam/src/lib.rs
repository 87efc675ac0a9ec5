//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! [`utils::CachePadded`].

#![deny(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

/// Utility types with crossbeam-compatible names.
pub mod utils {
    /// Pads and aligns a value to (at least) one cache line, preventing
    /// false sharing between adjacent slots in a `Vec`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value`.
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_is_aligned_and_derefs() {
        let p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(p.into_inner(), 7);
    }
}
