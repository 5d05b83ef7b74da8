//! Container images: the code a function ships as, with its size for pull
//! costs.

/// A function's code image.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerImage {
    pub name: String,
    pub size_mb: f64,
}

impl ContainerImage {
    pub fn new(name: &str, size_mb: f64) -> Self {
        ContainerImage {
            name: name.to_string(),
            size_mb,
        }
    }
}
