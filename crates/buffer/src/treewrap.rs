//! An LXP wrapper over in-memory documents with pluggable fill policies.
//!
//! [`TreeWrapper`] plays the role of a generic wrapped source: it owns one
//! or more materialized [`Document`]s and answers `fill` requests at the
//! granularity chosen by its [`FillPolicy`] — the "wrapper controls the
//! granularity at which it exports data" principle of §4. The policies
//! model the paper's examples: node-at-a-time ("ideal" sources), n-at-a-
//! time bulk transfer ("a relational source may return chunks of 100
//! tuples at a time"), whole documents, and the size-threshold streaming
//! of Web wrappers ("start streaming of huge documents by sending complete
//! elements if their size does not exceed a certain limit, say 50K").
//!
//! Hole ids are self-describing (`uri|c|node|index`), so the wrapper keeps
//! no lookup table — the same trick as the relational wrapper's
//! `db_name.table.row_number` ids.
//!
//! A children hole names its siblings by *position*, and a [`Document`]
//! links siblings first-child/next-sibling, so every registered document
//! carries a child index built once at [`TreeWrapper::add`]: one flat
//! array of all child lists, parent after parent, and each parent's
//! offset into it (two `u32`s per node). The n-th child and the child
//! count of any parent are then one slice away, and a fill costs the same
//! whatever the fan-out and however a client alternates between parents.

use crate::adaptive::AimdChunk;
use crate::fragment::Fragment;
use crate::lxp::{chase_continuation, BatchItem, HoleId, LxpError, LxpWrapper};
use mix_xml::{Document, NodeId, Tree};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// How much of the requested region a fill reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// One shallow node per fill (finest granularity; every navigation is
    /// a round trip — the situation §4 calls prohibitively expensive).
    NodeAtATime,
    /// Up to `n` complete sibling subtrees per fill, with a trailing hole
    /// while more remain (bulk transfer).
    Chunked { n: usize },
    /// The whole remaining region in one reply.
    WholeSubtree,
    /// All remaining siblings, each sent complete when its subtree has at
    /// most `max_nodes` nodes and shallow (with a child hole) otherwise —
    /// the Web wrapper's streaming heuristic.
    SizeThreshold { max_nodes: usize },
    /// Like `Chunked`, but the chunk follows an [`AimdChunk`] controller:
    /// additive growth on sequential fills, multiplicative shrink on
    /// random access or waste, starting at `initial` subtrees per fill.
    Adaptive { initial: usize },
}

/// A registered document and its child index.
struct IndexedDoc {
    doc: Arc<Document>,
    /// Registration number of the uri, kept when the uri is registered
    /// again: what `last_fill` names the document by.
    slot: usize,
    /// `kids[offsets[p]..offsets[p + 1]]` are the children of node `p`.
    offsets: Vec<u32>,
    kids: Vec<NodeId>,
}

impl IndexedDoc {
    fn new(doc: Arc<Document>, slot: usize) -> Self {
        let mut offsets = Vec::with_capacity(doc.len() + 1);
        let mut kids = Vec::with_capacity(doc.len().saturating_sub(1));
        for p in 0..doc.len() {
            // Node ids are `u32`s, and every node but the root is a kid.
            offsets.push(kids.len() as u32);
            kids.extend(doc.children(NodeId::from_index(p)));
        }
        offsets.push(kids.len() as u32);
        IndexedDoc { doc, slot, offsets, kids }
    }

    fn children(&self, parent: NodeId) -> &[NodeId] {
        let p = parent.index();
        &self.kids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// The region of a document a hole id stands for.
enum Region<'a> {
    /// `uri|root`: the document's root element.
    Root,
    /// `uri|c|parent|start`: the children of node `parent` from position
    /// `start` on (both still text).
    Children { parent: &'a str, start: &'a str },
}

/// Split a hole id into its uri and region.
fn parse_hole(hole: &str) -> Option<(&str, Region<'_>)> {
    let mut parts = hole.split('|');
    let uri = parts.next()?;
    let region = match (parts.next()?, parts.next(), parts.next()) {
        ("root", None, None) => Region::Root,
        ("c", Some(parent), Some(start)) => Region::Children { parent, start },
        _ => return None,
    };
    parts.next().is_none().then_some((uri, region))
}

/// LXP wrapper over a registry of in-memory documents.
pub struct TreeWrapper {
    docs: HashMap<String, IndexedDoc>,
    policy: FillPolicy,
    /// Chunk controller, present under `FillPolicy::Adaptive`.
    adaptive: Option<AimdChunk>,
    /// Where the previous children fill left off: `(document slot, parent
    /// node, next start)` — the adaptive controller's sequentiality
    /// oracle.
    last_fill: Option<(usize, usize, usize)>,
    /// Continuation items appended per `fill_many` exchange (0 = none).
    batch_budget: usize,
}

impl TreeWrapper {
    /// An empty registry with the given policy.
    pub fn new(policy: FillPolicy) -> Self {
        let adaptive = match policy {
            FillPolicy::Adaptive { initial } => Some(AimdChunk::with_initial(initial)),
            _ => None,
        };
        TreeWrapper { docs: HashMap::new(), policy, adaptive, last_fill: None, batch_budget: 0 }
    }

    /// Allow up to `budget` wrapper-pushed continuation items per
    /// `fill_many` exchange (see [`chase_continuation`]).
    pub fn with_batch_budget(mut self, budget: usize) -> Self {
        self.batch_budget = budget;
        self
    }

    /// The chunk the adaptive controller would use for the next fill
    /// (`None` unless the policy is [`FillPolicy::Adaptive`]).
    pub fn current_chunk(&self) -> Option<usize> {
        self.adaptive.as_ref().map(AimdChunk::chunk)
    }

    /// Register a document under a URI (replacing what the URI named
    /// before) and index its child lists.
    pub fn add(&mut self, uri: impl Into<String>, doc: Arc<Document>) {
        let uri = uri.into();
        let slot = self.docs.get(&uri).map_or(self.docs.len(), |d| d.slot);
        self.docs.insert(uri, IndexedDoc::new(doc, slot));
    }

    /// Convenience: a wrapper exporting a single tree as `doc`.
    pub fn single(tree: &Tree, policy: FillPolicy) -> Self {
        let mut w = TreeWrapper::new(policy);
        w.add("doc", Arc::new(Document::from_tree(tree)));
        w
    }

    /// The active fill policy.
    pub fn policy(&self) -> FillPolicy {
        self.policy
    }

    fn fill_children(
        &mut self,
        hole: &HoleId,
        uri: &str,
        parent: &str,
        start: &str,
    ) -> Result<Vec<Fragment>, LxpError> {
        let indexed = indexed(&self.docs, uri)?;
        let doc = &*indexed.doc;
        let unknown = || LxpError::UnknownHole(hole.clone());
        let parent: usize = parent.parse().map_err(|_| unknown())?;
        let start: usize = start.parse().map_err(|_| unknown())?;
        if parent >= doc.len() {
            return Err(unknown());
        }
        let parent = NodeId::from_index(parent);
        let Some(rest) = indexed.children(parent).get(start..).filter(|r| !r.is_empty()) else {
            return Ok(Vec::new());
        };
        Ok(match self.policy {
            FillPolicy::NodeAtATime => {
                let mut out = Vec::with_capacity(2);
                out.push(shallow(uri, doc, rest[0]));
                if rest.len() > 1 {
                    out.push(Fragment::Hole(children_hole(uri, parent, start + 1)));
                }
                out
            }
            FillPolicy::Chunked { n } => {
                let take = n.max(1).min(rest.len());
                chunk_reply(doc, uri, parent, start, rest, take)
            }
            FillPolicy::Adaptive { .. } => {
                let ctl = self.adaptive.as_mut().expect("adaptive policy has a controller");
                match self.last_fill {
                    Some((d, p, next)) if d == indexed.slot && p == parent.index() => {
                        if next == start {
                            ctl.on_sequential()
                        } else if start < next {
                            // A backwards jump re-requests data already
                            // shipped: the earlier chunk tail was wasted.
                            ctl.on_waste()
                        } else {
                            ctl.on_random()
                        }
                    }
                    Some(_) => ctl.on_random(),
                    None => {}
                }
                let take = ctl.chunk().min(rest.len());
                self.last_fill = Some((indexed.slot, parent.index(), start + take));
                chunk_reply(doc, uri, parent, start, rest, take)
            }
            FillPolicy::WholeSubtree => rest.iter().map(|&c| complete(doc, c)).collect(),
            FillPolicy::SizeThreshold { max_nodes } => rest
                .iter()
                .map(|&c| {
                    // `subtree_len` counts via preorder-id arithmetic —
                    // materializing the subtree just to size it made the
                    // threshold check as expensive as always sending it.
                    if doc.subtree_len(c) <= max_nodes {
                        complete(doc, c)
                    } else {
                        shallow(uri, doc, c)
                    }
                })
                .collect(),
        })
    }
}

fn indexed<'a>(
    docs: &'a HashMap<String, IndexedDoc>,
    uri: &str,
) -> Result<&'a IndexedDoc, LxpError> {
    docs.get(uri).ok_or_else(|| LxpError::UnknownSource(uri.to_string()))
}

/// Shallow fragment: the node's label with one hole for all children.
fn shallow(uri: &str, doc: &Document, node: NodeId) -> Fragment {
    let children = match doc.down(node) {
        None => Vec::new(),
        Some(_) => vec![Fragment::Hole(children_hole(uri, node, 0))],
    };
    Fragment::Node { label: doc.fetch(node).clone(), children }
}

/// Complete fragment for a subtree.
fn complete(doc: &Document, node: NodeId) -> Fragment {
    Fragment::from_tree(&doc.subtree(node))
}

/// Complete-subtree chunk reply: `take` subtrees plus a trailing hole
/// while more remain (shared by `Chunked` and `Adaptive`).
fn chunk_reply(
    doc: &Document,
    uri: &str,
    parent: NodeId,
    start: usize,
    rest: &[NodeId],
    take: usize,
) -> Vec<Fragment> {
    let mut out = Vec::with_capacity(take + 1);
    out.extend(rest[..take].iter().map(|&c| complete(doc, c)));
    if rest.len() > take {
        out.push(Fragment::Hole(children_hole(uri, parent, start + take)));
    }
    out
}

fn children_hole(uri: &str, parent: NodeId, start: usize) -> HoleId {
    // Sized for the uri, the three separators and two numbers, so the id
    // is one allocation.
    let mut id = String::with_capacity(uri.len() + 24);
    let _ = write!(id, "{uri}|c|{}|{start}", parent.index());
    id
}

fn root_hole(uri: &str) -> HoleId {
    format!("{uri}|root")
}

impl LxpWrapper for TreeWrapper {
    fn get_root(&mut self, uri: &str) -> Result<HoleId, LxpError> {
        indexed(&self.docs, uri)?;
        Ok(root_hole(uri))
    }

    fn fill(&mut self, hole: &HoleId) -> Result<Vec<Fragment>, LxpError> {
        match parse_hole(hole) {
            Some((uri, Region::Root)) => {
                let doc = &*indexed(&self.docs, uri)?.doc;
                Ok(vec![match self.policy {
                    FillPolicy::WholeSubtree => complete(doc, doc.root()),
                    _ => shallow(uri, doc, doc.root()),
                }])
            }
            Some((uri, Region::Children { parent, start })) => {
                self.fill_children(hole, uri, parent, start)
            }
            None => Err(LxpError::UnknownHole(hole.clone())),
        }
    }

    /// Batched fills with wrapper-pushed continuation: after answering the
    /// requested holes, chase up to `batch_budget` further holes of this
    /// exchange's own replies — a sequential scan's whole chunk frontier
    /// arrives in one round trip.
    fn fill_many(&mut self, holes: &[HoleId]) -> Result<Vec<BatchItem>, LxpError> {
        let mut items = Vec::with_capacity(holes.len());
        for h in holes {
            items.push(BatchItem { hole: h.clone(), fragments: self.fill(h)? });
        }
        let budget = self.batch_budget;
        chase_continuation(self, &mut items, budget);
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lxp::check_progress;
    use mix_xml::term::parse_term;

    fn wrapper(term: &str, policy: FillPolicy) -> TreeWrapper {
        TreeWrapper::single(&parse_term(term).unwrap(), policy)
    }

    #[test]
    fn get_root_then_fill_yields_root_element() {
        let mut w = wrapper("a[b,c]", FillPolicy::NodeAtATime);
        let h = w.get_root("doc").unwrap();
        let reply = w.fill(&h).unwrap();
        assert_eq!(reply.len(), 1);
        let Fragment::Node { label, children } = &reply[0] else { panic!() };
        assert_eq!(label, "a");
        assert_eq!(children.len(), 1);
        assert!(children[0].is_hole());
    }

    #[test]
    fn unknown_source_and_holes_error() {
        let mut w = wrapper("a", FillPolicy::NodeAtATime);
        assert!(matches!(w.get_root("nope"), Err(LxpError::UnknownSource(_))));
        assert!(matches!(w.fill(&"garbage".to_string()), Err(LxpError::UnknownHole(_))));
        assert!(matches!(
            w.fill(&"doc|c|999|0".to_string()),
            Err(LxpError::UnknownHole(_))
        ));
    }

    #[test]
    fn node_at_a_time_reveals_one_node_per_fill() {
        let mut w = wrapper("r[a,b,c]", FillPolicy::NodeAtATime);
        let reply = w.fill(&"doc|c|0|0".to_string()).unwrap();
        // [a, ◦next]
        assert_eq!(reply.len(), 2);
        assert_eq!(reply[0], Fragment::leaf("a"));
        assert!(reply[1].is_hole());
        // Last child: no trailing hole.
        let last = w.fill(&"doc|c|0|2".to_string()).unwrap();
        assert_eq!(last, vec![Fragment::leaf("c")]);
        // Past the end: empty reply.
        assert_eq!(w.fill(&"doc|c|0|3".to_string()).unwrap(), vec![]);
    }

    #[test]
    fn chunked_returns_n_complete_tuples() {
        // The paper's relational wrapper: n tuples at a time, each
        // complete ("the wrapper does not have to deal with navigations at
        // the attribute level").
        let mut w = wrapper(
            "view[tuple[a[1]],tuple[a[2]],tuple[a[3]],tuple[a[4]],tuple[a[5]]]",
            FillPolicy::Chunked { n: 2 },
        );
        let reply = w.fill(&"doc|c|0|0".to_string()).unwrap();
        assert_eq!(reply.len(), 3); // 2 tuples + hole
        assert!(reply[0].is_closed() && reply[1].is_closed());
        assert!(reply[2].is_hole());
        // Follow the hole.
        let Fragment::Hole(h) = &reply[2] else { panic!() };
        let reply2 = w.fill(h).unwrap();
        assert_eq!(reply2.len(), 3); // tuples 3,4 + hole
        let Fragment::Hole(h2) = &reply2[2] else { panic!() };
        let reply3 = w.fill(h2).unwrap();
        assert_eq!(reply3.len(), 1); // final tuple, no hole
        assert!(reply3[0].is_closed());
    }

    #[test]
    fn whole_subtree_sends_everything() {
        let mut w = wrapper("a[b[d,e],c]", FillPolicy::WholeSubtree);
        let h = w.get_root("doc").unwrap();
        let reply = w.fill(&h).unwrap();
        assert_eq!(reply.len(), 1);
        assert!(reply[0].is_closed());
        assert_eq!(reply[0].to_tree().unwrap().to_string(), "a[b[d,e],c]");
    }

    #[test]
    fn size_threshold_streams_small_elements_whole() {
        // big subtree stays shallow, small ones arrive complete.
        let mut w = wrapper(
            "page[small[x],huge[a,b,c,d,e,f,g,h],tiny]",
            FillPolicy::SizeThreshold { max_nodes: 3 },
        );
        let reply = w.fill(&"doc|c|0|0".to_string()).unwrap();
        assert_eq!(reply.len(), 3);
        assert!(reply[0].is_closed(), "small is complete");
        assert!(!reply[1].is_closed(), "huge is shallow with a hole");
        assert!(reply[2].is_closed(), "tiny is complete");
    }

    #[test]
    fn every_policy_respects_lxp_progress() {
        for policy in [
            FillPolicy::NodeAtATime,
            FillPolicy::Chunked { n: 1 },
            FillPolicy::Chunked { n: 3 },
            FillPolicy::WholeSubtree,
            FillPolicy::SizeThreshold { max_nodes: 2 },
        ] {
            let mut w = wrapper("r[a[p,q],b,c[z]]", policy);
            // Exhaustively fill everything reachable, checking progress.
            let mut queue = vec![w.get_root("doc").unwrap()];
            let mut fills = 0;
            while let Some(h) = queue.pop() {
                let reply = w.fill(&h).unwrap();
                check_progress(&reply).unwrap();
                fills += 1;
                assert!(fills < 1000, "non-terminating policy {policy:?}");
                fn collect(f: &Fragment, q: &mut Vec<HoleId>) {
                    match f {
                        Fragment::Hole(h) => q.push(h.clone()),
                        Fragment::Node { children, .. } => {
                            children.iter().for_each(|c| collect(c, q))
                        }
                    }
                }
                reply.iter().for_each(|f| collect(f, &mut queue));
            }
        }
    }

    #[test]
    fn adaptive_chunks_grow_on_sequential_scans() {
        let term = format!(
            "r[{}]",
            (0..200).map(|i| format!("t{i}")).collect::<Vec<_>>().join(",")
        );
        let mut w = wrapper(&term, FillPolicy::Adaptive { initial: 2 });
        assert_eq!(w.current_chunk(), Some(2));
        // Scan: follow the trailing hole of each reply.
        let mut hole = "doc|c|0|0".to_string();
        let mut fills = 0;
        loop {
            let reply = w.fill(&hole).unwrap();
            fills += 1;
            match reply.last() {
                Some(Fragment::Hole(h)) => hole = h.clone(),
                _ => break,
            }
        }
        assert!(w.current_chunk().unwrap() > 2, "chunk grew under the scan");
        // Growing chunks need far fewer fills than fixed chunk 2 (100).
        assert!(fills < 30, "adaptive scan took {fills} fills");
    }

    #[test]
    fn adaptive_chunks_shrink_on_random_access() {
        let term = format!(
            "r[{}]",
            (0..100).map(|i| format!("t{i}")).collect::<Vec<_>>().join(",")
        );
        let mut w = wrapper(&term, FillPolicy::Adaptive { initial: 32 });
        // Random probes at scattered positions.
        for start in [50usize, 3, 80, 20, 66] {
            let _ = w.fill(&format!("doc|c|0|{start}")).unwrap();
        }
        assert!(
            w.current_chunk().unwrap() < 32,
            "chunk shrank to {:?} under random access",
            w.current_chunk()
        );
    }

    #[test]
    fn adaptive_replies_respect_lxp_progress() {
        let mut w = wrapper("r[a[p,q],b,c[z],d,e]", FillPolicy::Adaptive { initial: 1 });
        let mut queue = vec![w.get_root("doc").unwrap()];
        while let Some(h) = queue.pop() {
            let reply = w.fill(&h).unwrap();
            check_progress(&reply).unwrap();
            fn collect(f: &Fragment, q: &mut Vec<HoleId>) {
                match f {
                    Fragment::Hole(h) => q.push(h.clone()),
                    Fragment::Node { children, .. } => children.iter().for_each(|c| collect(c, q)),
                }
            }
            reply.iter().for_each(|f| collect(f, &mut queue));
        }
    }

    #[test]
    fn fill_many_with_budget_streams_the_scan_frontier() {
        let term = format!(
            "view[{}]",
            (0..30).map(|i| format!("t[v{i}]")).collect::<Vec<_>>().join(",")
        );
        let mut w = wrapper(&term, FillPolicy::Chunked { n: 3 }).with_batch_budget(4);
        let first = w.fill(&"doc|c|0|0".to_string()).unwrap();
        let Some(Fragment::Hole(h)) = first.last() else { panic!("trailing hole") };
        // One exchange: the requested chunk plus 4 continuation chunks.
        let items = w.fill_many(std::slice::from_ref(h)).unwrap();
        assert_eq!(items.len(), 5, "1 requested + 4 continuation items");
        assert_eq!(&items[0].hole, h);
        // Continuation items answer the successive trailing holes.
        for pair in items.windows(2) {
            let Some(Fragment::Hole(next)) = pair[0].fragments.last() else {
                panic!("chunk reply ends with a trailing hole")
            };
            assert_eq!(&pair[1].hole, next);
        }
    }

    #[test]
    fn fill_many_without_budget_matches_the_default() {
        let mut w = wrapper("r[a,b,c,d]", FillPolicy::NodeAtATime);
        let holes: Vec<HoleId> = vec!["doc|c|0|0".into(), "doc|c|0|2".into()];
        let items = w.fill_many(&holes).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].fragments, w.fill(&holes[0]).unwrap());
        assert_eq!(items[1].fragments, w.fill(&holes[1]).unwrap());
    }

    #[test]
    fn multiple_documents_under_distinct_uris() {
        let mut w = TreeWrapper::new(FillPolicy::WholeSubtree);
        w.add("homes", Arc::new(Document::from_tree(&parse_term("homes[h1]").unwrap())));
        w.add("schools", Arc::new(Document::from_tree(&parse_term("schools[s1]").unwrap())));
        let h1 = w.get_root("homes").unwrap();
        let h2 = w.get_root("schools").unwrap();
        assert_ne!(h1, h2);
        assert_eq!(w.fill(&h1).unwrap()[0].to_tree().unwrap().label(), "homes");
        assert_eq!(w.fill(&h2).unwrap()[0].to_tree().unwrap().label(), "schools");
    }

    /// Fill everything reachable, first hole in document order first;
    /// one `hole -> reply` line per exchange.
    fn transcript(w: &mut TreeWrapper) -> Vec<String> {
        let mut lines = Vec::new();
        let mut stack = vec![w.get_root("doc").unwrap()];
        while let Some(h) = stack.pop() {
            let reply = w.fill(&h).unwrap();
            let shown: Vec<String> = reply.iter().map(Fragment::to_string).collect();
            lines.push(format!("{h} -> {}", shown.join(" ")));
            let mut holes = Vec::new();
            crate::lxp::collect_holes(&reply, &mut holes);
            stack.extend(holes.into_iter().rev());
        }
        lines
    }

    #[test]
    fn replies_and_hole_ids_are_pinned_for_every_policy() {
        // Hole ids are counted by `Fragment::wire_bytes`, so they are part
        // of every traffic figure: pinned as text, not as a shape.
        let golden: [(FillPolicy, &[&str]); 5] = [
            (
                FillPolicy::NodeAtATime,
                &[
                    "doc|root -> r[◦doc|c|0|0]",
                    "doc|c|0|0 -> a[◦doc|c|1|0] ◦doc|c|0|1",
                    "doc|c|1|0 -> x ◦doc|c|1|1",
                    "doc|c|1|1 -> y",
                    "doc|c|0|1 -> b ◦doc|c|0|2",
                    "doc|c|0|2 -> c[◦doc|c|5|0]",
                    "doc|c|5|0 -> z",
                ],
            ),
            (
                FillPolicy::Chunked { n: 2 },
                &[
                    "doc|root -> r[◦doc|c|0|0]",
                    "doc|c|0|0 -> a[x,y] b ◦doc|c|0|2",
                    "doc|c|0|2 -> c[z]",
                ],
            ),
            (FillPolicy::WholeSubtree, &["doc|root -> r[a[x,y],b,c[z]]"]),
            (
                FillPolicy::SizeThreshold { max_nodes: 2 },
                &[
                    "doc|root -> r[◦doc|c|0|0]",
                    "doc|c|0|0 -> a[◦doc|c|1|0] b c[z]",
                    "doc|c|1|0 -> x y",
                ],
            ),
            (
                FillPolicy::Adaptive { initial: 1 },
                &[
                    "doc|root -> r[◦doc|c|0|0]",
                    "doc|c|0|0 -> a[x,y] ◦doc|c|0|1",
                    "doc|c|0|1 -> b c[z]",
                ],
            ),
        ];
        for (policy, expected) in golden {
            let mut w = wrapper("r[a[x,y],b,c[z]]", policy);
            assert_eq!(transcript(&mut w), expected, "{policy:?}");
        }
    }

    #[test]
    fn alternating_between_parents_returns_what_sequential_fills_do() {
        let term = "r[a[p,q,s],b[t,u,v],c[w]]";
        let outer = ["doc|c|0|0", "doc|c|0|1", "doc|c|0|2"];
        let inner = ["doc|c|1|0", "doc|c|1|1", "doc|c|1|2", "doc|c|5|0", "doc|c|5|1", "doc|c|5|2"];
        let mut w = wrapper(term, FillPolicy::NodeAtATime);
        let mut sequential = std::collections::HashMap::new();
        for h in outer.iter().chain(&inner) {
            sequential.insert(*h, w.fill(&h.to_string()).unwrap());
        }
        // Outer, inner, outer, inner, …: a nested scan's order.
        let mut w = wrapper(term, FillPolicy::NodeAtATime);
        for (o, i) in outer.iter().cycle().zip(&inner) {
            assert_eq!(w.fill(&o.to_string()).unwrap(), sequential[o], "{o}");
            assert_eq!(w.fill(&i.to_string()).unwrap(), sequential[i], "{i}");
        }
    }

    #[test]
    fn registering_a_uri_again_serves_the_new_content() {
        let mut w = wrapper("r[a,b]", FillPolicy::NodeAtATime);
        assert_eq!(w.fill(&"doc|c|0|1".to_string()).unwrap(), vec![Fragment::leaf("b")]);
        w.add("doc", Arc::new(Document::from_tree(&parse_term("s[x,y,z]").unwrap())));
        assert_eq!(
            w.fill(&"doc|c|0|1".to_string()).unwrap(),
            vec![Fragment::leaf("y"), Fragment::hole("doc|c|0|2")]
        );
        assert_eq!(w.fill(&"doc|c|0|2".to_string()).unwrap(), vec![Fragment::leaf("z")]);
    }
}
