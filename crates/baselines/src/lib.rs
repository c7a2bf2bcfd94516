//! Baselines the BatchHL paper compares against (Section 7.1).
//!
//! All of them are implemented from scratch on the same graph substrate
//! so the comparison measures algorithms, not plumbing:
//!
//! * [`bibfs`] — the online bidirectional-BFS baseline (no index),
//! * [`pll`] — static pruned landmark labelling (Akiba et al. 2013),
//!   the 2-hop-cover foundation of the FulPLL family,
//! * [`psl`] — PSL\*-style level-synchronous parallel PLL construction
//!   (Li et al. 2019),
//! * [`inc_pll`] — incremental PLL (Akiba et al. 2014): resumed pruned
//!   BFSs on insertion, outdated entries deliberately kept,
//! * [`dec_pll`] — decremental PLL in the style of D'Angelo et al.
//!   2019: detect affected hub/vertex pairs, remove their entries,
//!   rebuild by boundary-seeded partial BFSs in rank order,
//! * [`full_pll`] — FulPLL: the fully dynamic combination of the two,
//! * [`fulfd`] — FulFD (Hayashi et al. 2016): full shortest-path trees
//!   per landmark maintained per single update + bounded online search
//!   (see DESIGN.md §4 for the bit-parallel substitution note).

#![forbid(unsafe_code)]

pub mod bibfs;
pub mod bit_parallel;
pub mod dec_pll;
pub mod fulfd;
pub mod full_pll;
pub mod inc_pll;
pub mod pll;
pub mod psl;

pub use bibfs::OnlineBiBfs;
pub use fulfd::FulFd;
pub use full_pll::FulPll;
pub use pll::{PllIndex, TwoHopLabels};
pub use psl::{build_psl, build_psl_with_deadline};
