//! Reproductions of every table and figure in the paper's evaluation
//! (see DESIGN.md §3 for the experiment index).

pub mod characteristics_exp;
pub mod compression_exp;
pub mod elbows_exp;
pub mod fig1;
mod fmt;
pub mod forecasting_exp;
pub mod retrain_exp;
pub mod table1;
