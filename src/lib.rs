//! # c1p — parallel consecutive-ones testing via Tutte decomposition
//!
//! A from-scratch reproduction of **Annexstein & Swaminathan, "On testing
//! consecutive-ones property in parallel"** (SPAA 1995; DAM 88, 1998): a
//! divide-and-conquer C1P solver whose combine step computes Whitney
//! switches on the Tutte decompositions of partial realizations — the
//! paper's alternative to PQ-trees — plus everything the paper builds on
//! or compares against, each implemented in its own crate:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`matrix`] | ensembles, verifiers, Tucker transform/obstructions, workload generators |
//! | [`graph`] | multigraphs, 2-connectivity, Whitney switches, reference Tutte decomposition |
//! | [`tutte`] | fast Tutte decomposition of gp-realizations (interlacement classes) |
//! | [`pqtree`] | the Booth–Lueker baseline |
//! | [`core_alg`] | the paper's `Path-Realization` algorithm, sequential and parallel, with its modelled PRAM cost |
//! | [`cert`] | Tucker-witness rejection certificates |
//! | [`incremental`] | streaming sessions with differential re-solve and rollback |
//! | [`engine`] | batched, caching solve service + the `c1pd` wire front-end |
//!
//! # Quickstart
//!
//! Decide C1P and get a witness atom order (the paper's Fig. 2 matrix):
//!
//! ```
//! use c1p::matrix::io::parse_ensemble;
//!
//! let ens = parse_ensemble(
//!     "1000100\n1001100\n0010011\n0010001\n1001101\n0100101\n0110101\n0010111\n",
//! ).unwrap();
//! let order = c1p::solve(&ens).expect("the paper's running example is C1P");
//! c1p::matrix::verify_linear(&ens, &order).unwrap();
//! ```
//!
//! Non-C1P inputs return an evidence-carrying [`Rejection`]; with
//! [`solve_certified`] the rejection names a concrete Tucker submatrix
//! that the solver-independent [`cert::verify_witness`] re-checks:
//!
//! ```
//! let bad = c1p::matrix::tucker::m_iv(); // Tucker's M_IV obstruction
//! let cert = c1p::solve_certified(&bad).unwrap_err();
//! assert_eq!(cert.witness.family, c1p::matrix::tucker::TuckerFamily::MIV);
//! c1p::cert::verify_witness(&bad, &cert.witness).unwrap();
//! ```

pub use c1p_cert::{
    certify_rejection, solve_certified, solve_par_certified, CertifiedRejection, TuckerWitness,
};
pub use c1p_core::circular::solve_circular;
pub use c1p_core::interval_graphs;
pub use c1p_core::parallel::{solve_par, solve_par_with};
pub use c1p_core::{solve, solve_with, Config, RejectSite, Rejection, SolveStats};
pub use c1p_engine::{Engine, EngineConfig, EngineError, EngineStats, Verdict};
pub use c1p_incremental::{IncrementalSolver, IncrementalStats, PushVerdict};

/// Ensembles, matrices, verifiers and workload generators.
pub use c1p_matrix as matrix;

/// General graph substrate (reference implementations).
pub use c1p_graph as graph;

/// Fast Tutte decomposition of gp-realizations.
pub use c1p_tutte as tutte;

/// The Booth–Lueker PQ-tree baseline.
pub use c1p_pqtree as pqtree;

/// The divide-and-conquer solver internals.
pub use c1p_core as core_alg;

/// Tucker-witness certificates for rejections.
pub use c1p_cert as cert;

/// The batched, caching solve service and its wire protocol (`c1pd`).
pub use c1p_engine as engine;

/// Incremental sessions: streaming column pushes with differential
/// per-component re-solve, certified rejection and rollback.
pub use c1p_incremental as incremental;
