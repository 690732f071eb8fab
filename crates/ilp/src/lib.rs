//! # strudel-ilp
//!
//! A pure-Rust 0-1 / bounded-integer linear programming solver, built as the
//! stand-in for the commercial ILP solver (IBM ILOG CPLEX) used by
//! *"A Principled Approach to Bridging the Gap between Graph Data and their
//! Schemas"* (Arenas et al., VLDB 2014) to solve its sort-refinement
//! instances.
//!
//! Components:
//!
//! * [`model`] — model builder: bounded integer variables, linear
//!   constraints, optional objective, and *decision groups* (branching hints
//!   for assignment-shaped problems such as the paper's `X_{i,µ}` variables),
//! * [`presolve`] — cheap solution-preserving reductions,
//! * [`engine`] — normalized rows, backtrackable bounds, and event-driven
//!   integer bound propagation (rows watch the bound events that can raise
//!   their minimum activity),
//! * [`brancher`] — pluggable branching heuristics (input-order, first-fail,
//!   conflict activity),
//! * [`search`] — the depth-first search loop: Luby-scheduled restarts and
//!   [`search::WarmStart`] hints from prior solutions,
//! * [`solver`] — the facade: configuration, `solve`, and `solve_with_hint`
//!   with incumbent-based objective bounding.
//!
//! ## Example
//!
//! ```
//! use strudel_ilp::prelude::*;
//!
//! // maximize 3x + 4y  s.t.  2x + 3y ≤ 5,  x, y ∈ {0, 1}
//! let mut model = Model::new();
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! model.add_constraint("capacity", LinExpr::new().plus(2, x).plus(3, y), Cmp::Le, 5);
//! model.set_objective(Sense::Maximize, LinExpr::new().plus(3, x).plus(4, y));
//!
//! let result = Solver::new().solve(&model).unwrap();
//! assert_eq!(result.status, SolveStatus::Optimal);
//! assert_eq!(result.objective, Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brancher;
pub mod engine;
pub mod error;
pub mod model;
pub mod presolve;
pub mod search;
pub mod solution;
pub mod solver;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::brancher::{BranchChoice, Brancher, BrancherKind};
    pub use crate::error::IlpError;
    pub use crate::model::{Cmp, Constraint, LinExpr, Model, Objective, Sense, VarDef, VarId};
    pub use crate::presolve::{presolve, PresolveReport};
    pub use crate::search::{luby, WarmStart};
    pub use crate::solution::{SolveResult, SolveStats, SolveStatus};
    pub use crate::solver::{Solver, SolverConfig};
}
