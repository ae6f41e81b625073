//! One module per reproduced table/figure (see DESIGN.md §4).

pub mod ablations;
pub mod backends;
pub mod fig10b;
pub mod fig11a;
pub mod fig11b;
pub mod fig12a;
pub mod fig12b;
pub mod fig13a;
pub mod fig13b;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod hotpath;
pub mod obs;
pub mod recover;
pub mod refit;
pub mod sec4_1;
pub mod sec7_8;
pub mod table1;
