//! # strudel-ilp
//!
//! A pure-Rust 0-1 / bounded-integer linear programming solver, built as the
//! stand-in for the commercial ILP solver (IBM ILOG CPLEX) used by
//! *"A Principled Approach to Bridging the Gap between Graph Data and their
//! Schemas"* (Arenas et al., VLDB 2014) to solve its sort-refinement
//! instances.
//!
//! The paper's instances only ask whether a feasible assignment exists, so
//! the solver answers exactly that: it branches on the first undecided
//! decision group in input order, propagates, and stops at the first
//! assignment that satisfies every constraint.
//!
//! Components:
//!
//! * [`model`] — model builder: bounded integer variables, linear
//!   constraints, *decision groups* (branching hints for
//!   assignment-shaped problems such as the paper's `X_{i,µ}` variables),
//!   and the declaration that the groups' members are interchangeable
//!   labels, whose symmetry the search breaks by value precedence,
//! * [`presolve`] — cheap solution-preserving reductions,
//! * [`engine`] — normalized rows, backtrackable bounds, and event-driven
//!   integer bound propagation (rows watch the bound events that can raise
//!   their minimum activity),
//! * [`search`] — the depth-first search loop, and [`search::WarmStart`]
//!   hints from prior solutions that reorder the values it tries,
//! * [`solver`] — the facade: configuration, `solve`, and `solve_with_hint`.
//!
//! ## Example
//!
//! ```
//! use strudel_ilp::prelude::*;
//!
//! // Is there x, y ∈ {0, 1} with 2x + 3y ≤ 5 and 3x + 4y ≥ 7?
//! let mut model = Model::new();
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! model.add_constraint("capacity", LinExpr::new().plus(2, x).plus(3, y), Cmp::Le, 5);
//! model.add_constraint("value", LinExpr::new().plus(3, x).plus(4, y), Cmp::Ge, 7);
//!
//! let result = Solver::new().solve(&model).unwrap();
//! assert_eq!(result.status, SolveStatus::Feasible);
//! assert_eq!(result.solution, Some(vec![1, 1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brancher;
pub mod engine;
pub mod error;
pub mod model;
pub mod presolve;
pub mod search;
pub mod solution;
pub mod solver;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::error::IlpError;
    pub use crate::model::{Cmp, Constraint, LinExpr, Model, VarDef, VarId};
    pub use crate::presolve::{presolve, PresolveReport};
    pub use crate::search::WarmStart;
    pub use crate::solution::{SolveResult, SolveStats, SolveStatus};
    pub use crate::solver::{Solver, SolverConfig};
}
