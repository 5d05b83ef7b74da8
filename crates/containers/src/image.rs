//! Container images: the code a function ships as, identified by content
//! hash, with its size for pull costs.

/// Image identifier (content hash in a real registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u64);

/// A function's code image.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerImage {
    pub id: ImageId,
    pub name: String,
    pub size_mb: f64,
}

impl ContainerImage {
    pub fn new(id: u64, name: &str, size_mb: f64) -> Self {
        ContainerImage {
            id: ImageId(id),
            name: name.to_string(),
            size_mb,
        }
    }
}
