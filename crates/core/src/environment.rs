//! Table I: the environments of cloud functions vs. HPC functions. Encoded
//! as data so documentation, tests, and the bench binary all print the same
//! matrix.

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvironmentRow {
    pub dimension: &'static str,
    pub cloud_faas: &'static str,
    pub hpc_faas: &'static str,
    /// The technology this reproduction actually exercises.
    pub exercised_here: &'static str,
}

/// The full matrix.
#[derive(Debug, Clone)]
pub struct EnvironmentMatrix {
    pub rows: Vec<EnvironmentRow>,
}

impl Default for EnvironmentMatrix {
    fn default() -> Self {
        Self::table1()
    }
}

impl EnvironmentMatrix {
    /// Table I of the paper (bold items = Cray specialisation).
    pub fn table1() -> Self {
        EnvironmentMatrix {
            rows: vec![
                EnvironmentRow {
                    dimension: "Network",
                    cloud_faas: "TCP",
                    hpc_faas: "uGNI, ibverbs, AWS EFA",
                    exercised_here: "fabric::Transport::{Ugni, IbVerbs, Tcp}",
                },
                EnvironmentRow {
                    dimension: "Sandbox",
                    cloud_faas: "Docker, microVM",
                    hpc_faas: "Singularity, Sarus",
                    exercised_here: "containers::ContainerRuntime",
                },
                EnvironmentRow {
                    dimension: "Storage",
                    cloud_faas: "Object, block",
                    hpc_faas: "Parallel file system",
                    exercised_here: "storage::{Lustre, ObjectStore}",
                },
                EnvironmentRow {
                    dimension: "Communication",
                    cloud_faas: "Storage, DB, queue",
                    hpc_faas: "Direct communication",
                    exercised_here: "fabric::Fabric (RDMA verbs)",
                },
                EnvironmentRow {
                    dimension: "Placement",
                    cloud_faas: "VMs, Kubernetes",
                    hpc_faas: "Batch jobs on HPC nodes",
                    exercised_here: "cluster::Cluster (fig01_utilization)",
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_five_dimensions() {
        let m = EnvironmentMatrix::table1();
        let dimensions: Vec<_> = m.rows.iter().map(|r| r.dimension).collect();
        assert_eq!(
            dimensions,
            [
                "Network",
                "Sandbox",
                "Storage",
                "Communication",
                "Placement"
            ]
        );
    }

    #[test]
    fn hpc_network_is_rdma_not_tcp() {
        let m = EnvironmentMatrix::table1();
        let net = &m.rows[0];
        assert_eq!(net.dimension, "Network");
        assert_eq!(net.cloud_faas, "TCP");
        assert!(net.hpc_faas.contains("uGNI"));
    }
}
