//! Container images: the code a function ships as, with its size for pull
//! costs.

/// A function's code image.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerImage {
    pub size_mb: f64,
}

impl ContainerImage {
    pub fn new(size_mb: f64) -> Self {
        ContainerImage { size_mb }
    }
}
