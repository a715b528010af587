//! One generator per table, figure and ablation, each returning the text it
//! reports; [`crate::registry`] lists them.

pub mod ablation_ampi;
pub mod ablation_bsp;
pub mod ablation_collectives;
pub mod ablation_elastic;
pub mod ablation_failures;
pub mod ablation_faults;
pub mod ablation_ghost;
pub mod ablation_lb;
pub mod ablation_md_lb;
pub mod ablation_multicast;
pub mod ablation_overload;
pub mod ablation_priority;
pub mod ampi_ring;
pub mod export_trace;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod table1;
pub mod table2;
