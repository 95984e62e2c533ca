//! # mix — navigation-driven evaluation of virtual mediated views
//!
//! A Rust reproduction of the MIX mediator system (Ludäscher,
//! Papakonstantinou, Velikhov: *Navigation-Driven Evaluation of Virtual
//! Mediated Views*, EDBT 2000).
//!
//! The client poses a [XMAS](xmas) query over heterogeneous sources and
//! receives a **virtual XML document**: nothing is computed until the
//! client navigates into it with a subset of the DOM API. Each algebra
//! operator of the evaluation plan is a *lazy mediator* translating
//! incoming navigations into minimal navigations on its inputs; a buffer
//! component with *open trees* and the LXP fragment protocol reconciles
//! fine-grained navigation with coarse-grained real sources.
//!
//! ## Quickstart
//!
//! ```
//! use mix::prelude::*;
//!
//! // 1. Register sources (here: in-memory documents; LXP-wrapped
//! //    relational / web / OODB sources work the same way).
//! let mut sources = SourceRegistry::new();
//! sources.add_term(
//!     "homesSrc",
//!     "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]]]",
//! );
//! sources.add_term(
//!     "schoolsSrc",
//!     "schools[school[dir[Smith],zip[91220]],school[dir[Hart],zip[91223]]]",
//! );
//!
//! // 2. Parse the paper's Figure 3 query and translate it to an algebra
//! //    plan (Figure 4).
//! let query = parse_query(
//!     "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
//!      WHERE homesSrc homes.home $H AND $H zip._ $V1
//!        AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2",
//! )
//! .unwrap();
//! let plan = translate(&query).unwrap();
//!
//! // 3. Wire the plan to the sources — no source access happens here.
//! let doc = VirtualDocument::new(Engine::new(plan, &sources).unwrap());
//!
//! // 4. Navigate the virtual answer; data is pulled on demand.
//! let root = doc.root();
//! assert_eq!(root.label(), "answer");
//! let first = root.down().unwrap();
//! assert_eq!(first.child("home").unwrap().child("addr").unwrap().text(), "La Jolla");
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`xml`] | `mix-xml` | labeled ordered trees, term/XML syntax, arena documents |
//! | [`nav`] | `mix-nav` | DOM-VXD navigation (`d`/`r`/`f`/`select`), counting, programs |
//! | [`xmas`] | `mix-xmas` | the XMAS query language and path expressions |
//! | [`algebra`] | `mix-algebra` | plans, XMAS→algebra translation, rewriting, browsability |
//! | [`core`] | `mix-core` | the lazy mediator engine, eager baseline, client library |
//! | [`buffer`] | `mix-buffer` | open trees, holes, LXP, the generic buffer component |
//! | [`relational`] | `mix-relational` | in-memory RDBMS substrate |
//! | [`wrappers`] | `mix-wrappers` | relational/web/OODB wrappers + workload generators |
//! | [`serve`] | `mix-serve` | session-multiplexed VXD server/client, DOM-VXD frame codec |

pub use mix_algebra as algebra;
pub use mix_buffer as buffer;
pub use mix_core as core;
pub use mix_nav as nav;
pub use mix_relational as relational;
pub use mix_serve as serve;
pub use mix_wrappers as wrappers;
pub use mix_xmas as xmas;
pub use mix_xml as xml;

/// The common imports for applications.
pub mod prelude {
    pub use mix_algebra::{
        classify, compose, rewrite::rewrite, translate, Browsability, NcCapabilities, Plan,
    };
    pub use mix_buffer::{
        BufferNavigator, ConcurrentPrefetcher, FaultConfig, FaultyWrapper,
        FillPolicy, FragmentCache, HealthStatus, MetricsRegistry, MetricsSnapshot, OverlapGauge,
        RetryPolicy, SlowWrapper, TreeWrapper,
    };
    pub use mix_core::{
        eager, Degraded, Engine, EngineConfig, PromText, SemanticOutcome, SourceRegistry,
        TraceKind, TraceLog, TraceSink, ViewCatalog, VirtualDocument, VirtualElement,
    };
    pub use mix_nav::{explore::materialize, LabelPred, Navigator};
    pub use mix_serve::{SessionSources, VxdClient, VxdServer};
    pub use mix_xmas::{parse_path, parse_query};
    pub use mix_xml::{term::parse_term, Document, Label, Tree};
}
