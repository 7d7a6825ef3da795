//! Reusable scratch buffers for hot loops.
//!
//! A buffer of borrowed views (`Vec<&'a T>`, or a struct of references) cannot
//! be kept across calls: its element type names the lifetime of the data it
//! pointed into.  [`recycle`] hands an emptied buffer's allocation to a vector
//! of another element type with the same layout — in practice the same type at
//! another lifetime — so a thread can park the buffer between calls as
//! `Vec<View<'static>>` and borrow it back as `Vec<View<'a>>` without touching
//! the allocator.

/// Empty `buffer` and return its allocation as a vector of `U`.
///
/// `T` and `U` must have the same size and alignment (checked at compile
/// time).  The vector is emptied first, so no value is ever reinterpreted: the
/// conversion is the standard library's in-place `collect` over an empty
/// iterator, which keeps the source allocation when the layouts match.
pub fn recycle<T, U>(mut buffer: Vec<T>) -> Vec<U> {
    const {
        assert!(std::mem::size_of::<T>() == std::mem::size_of::<U>());
        assert!(std::mem::align_of::<T>() == std::mem::align_of::<U>());
    }
    buffer.clear();
    buffer
        .into_iter()
        .map(|_| unreachable!("the buffer was emptied"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycling_keeps_the_allocation() {
        let mut parked: Vec<&'static str> = Vec::with_capacity(32);
        parked.push("x");
        let ptr = parked.as_ptr() as usize;
        let owned = String::from("borrowed");
        let mut views: Vec<&str> = recycle(parked);
        assert!(views.is_empty());
        assert_eq!(views.capacity(), 32);
        assert_eq!(views.as_ptr() as usize, ptr);
        views.push(&owned);
        let parked: Vec<&'static str> = recycle(views);
        assert!(parked.is_empty());
        assert_eq!(parked.as_ptr() as usize, ptr);
    }
}
