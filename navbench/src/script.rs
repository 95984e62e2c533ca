//! Seeded navigation scripts: what a client does with a session.
//!
//! Every script is written once against [`Client`] and run three ways:
//! against the system under test, against a plain `DocNavigator` over the
//! eager oracle's answer (which yields the expected checksum), and —
//! for `bench.script_overhead_ns` — against the oracle again under a
//! clock, so the cost of the script itself is known. A script folds
//! every label it fetches and every `None` it meets into an FNV-1a
//! checksum, so structure is checked, not just content.

use mix_xml::{Label, Tree};

/// A failed operation: it counts against `failed` and ends the session's
/// script, never the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fail(pub String);

/// The four DOM-VXD commands as a client sees them. Implementations count
/// every `down`/`right`/`fetch` as one navigation command.
pub trait Client {
    type H: Clone;
    fn root(&mut self) -> Self::H;
    fn down(&mut self, h: &Self::H) -> Result<Option<Self::H>, Fail>;
    fn right(&mut self, h: &Self::H) -> Result<Option<Self::H>, Fail>;
    fn fetch(&mut self, h: &Self::H) -> Result<Label, Fail>;
}

/// SplitMix64: the repository's generators use it too, but scripts must
/// not move when they change, so it is restated here.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over what a script saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn label(&mut self, label: &Label) {
        self.bytes(label.as_str().as_bytes());
        self.bytes(&[0x1f]);
    }

    fn none(&mut self) {
        self.bytes(&[0x00, 0x1e]);
    }
}

fn fetch_into<C: Client>(c: &mut C, h: &C::H, sum: &mut Checksum) -> Result<Label, Fail> {
    let label = c.fetch(h)?;
    sum.label(&label);
    Ok(label)
}

/// `d(root)` then `f`: the first answer child and its label.
pub fn first_answer<C: Client>(
    c: &mut C,
    sum: &mut Checksum,
) -> Result<Option<(C::H, Label)>, Fail> {
    let root = c.root();
    let Some(first) = c.down(&root)? else {
        sum.none();
        return Ok(None);
    };
    let label = fetch_into(c, &first, sum)?;
    Ok(Some((first, label)))
}

/// Depth-first from `start` (already fetched), fetching every node
/// reached, for exactly `budget` commands or until the document ends.
pub fn dfs_prefix<C: Client>(
    c: &mut C,
    start: C::H,
    mut budget: usize,
    sum: &mut Checksum,
) -> Result<(), Fail> {
    // `path` ends in the current node; before it, its ancestors up to
    // `start`'s level.
    let mut path = vec![start];
    while budget > 0 {
        let cur = path
            .last()
            .expect("the walk returns when the path empties")
            .clone();
        budget -= 1;
        match c.down(&cur)? {
            Some(child) => path.push(child),
            None => {
                sum.none();
                // No child: step right, climbing while there is no sibling.
                loop {
                    if budget == 0 {
                        return Ok(());
                    }
                    let cur = path
                        .last()
                        .expect("the walk returns when the path empties")
                        .clone();
                    budget -= 1;
                    if let Some(sibling) = c.right(&cur)? {
                        *path.last_mut().expect("just read") = sibling;
                        break;
                    }
                    sum.none();
                    path.pop();
                    if path.is_empty() {
                        return Ok(());
                    }
                }
            }
        }
        if budget > 0 {
            budget -= 1;
            let node = path
                .last()
                .expect("a node was just pushed or replaced")
                .clone();
            fetch_into(c, &node, sum)?;
        }
    }
    Ok(())
}

/// E19's bounded wander: `steps` commands from `start`, each `d`, `r` or
/// `f` by the seed; a `None` (or a fetch) sends the cursor back to the
/// document root.
pub fn wander<C: Client>(
    c: &mut C,
    start: C::H,
    seed: u64,
    steps: usize,
    sum: &mut Checksum,
) -> Result<(), Fail> {
    let root = c.root();
    let mut cur = start;
    for step in 0..steps as u64 {
        let next = match mix64(seed ^ step.wrapping_mul(0x9E37_79B9)) % 3 {
            0 => c.down(&cur)?,
            1 => c.right(&cur)?,
            _ => {
                fetch_into(c, &cur, sum)?;
                None
            }
        };
        if next.is_none() {
            sum.none();
        }
        cur = next.unwrap_or_else(|| root.clone());
    }
    Ok(())
}

fn subtree<C: Client>(c: &mut C, h: &C::H, label: Label, sum: &mut Checksum) -> Result<Tree, Fail> {
    let mut children = Vec::new();
    let mut cur = c.down(h)?;
    while let Some(child) = cur {
        let child_label = fetch_into(c, &child, sum)?;
        children.push(subtree(c, &child, child_label, sum)?);
        cur = c.right(&child)?;
    }
    Ok(Tree::node(label, children))
}

/// Materialise the answer children from `first` (already fetched)
/// rightwards, at most `limit` of them, each completely.
pub fn answers<C: Client>(
    c: &mut C,
    first: (C::H, Label),
    limit: usize,
    sum: &mut Checksum,
) -> Result<Vec<Tree>, Fail> {
    let mut out = Vec::new();
    let mut cur = Some(first);
    while let Some((h, label)) = cur {
        out.push(subtree(c, &h, label, sum)?);
        if out.len() == limit {
            break;
        }
        cur = match c.right(&h)? {
            Some(next) => {
                let label = fetch_into(c, &next, sum)?;
                Some((next, label))
            }
            None => None,
        };
    }
    Ok(out)
}

/// The order in which a `served_churn` client opens sessions over the
/// six templates (most popular first): a fixed cycle of ten with shares
/// 4, 2, 1, 1, 1, 1 — the nearest a cycle this short comes to zipf(1.1)'s
/// 0.44, 0.20, 0.13, 0.10, 0.07, 0.06. Short and fixed, not drawn: while
/// a command costs 88 ms a window holds some thirty sessions, and it must
/// hold the same mix, the expensive sixth template included, every time.
pub const DEAL: [usize; 10] = [0, 1, 0, 2, 0, 3, 1, 0, 4, 5];

#[cfg(test)]
pub mod tests {
    use super::*;
    use mix_nav::{DocNavigator, Navigator};
    use mix_xml::term::parse_term;

    /// A client over a materialised document that logs its commands.
    pub struct Logged {
        nav: DocNavigator,
        pub log: Vec<String>,
    }

    impl Logged {
        pub fn over(term: &str) -> Self {
            Logged {
                nav: DocNavigator::from_tree(&parse_term(term).unwrap()),
                log: Vec::new(),
            }
        }
    }

    impl Client for Logged {
        type H = <DocNavigator as Navigator>::Handle;
        fn root(&mut self) -> Self::H {
            self.nav.root()
        }
        fn down(&mut self, h: &Self::H) -> Result<Option<Self::H>, Fail> {
            self.log.push("d".into());
            Ok(self.nav.down(h))
        }
        fn right(&mut self, h: &Self::H) -> Result<Option<Self::H>, Fail> {
            self.log.push("r".into());
            Ok(self.nav.right(h))
        }
        fn fetch(&mut self, h: &Self::H) -> Result<Label, Fail> {
            let label = self.nav.fetch(h);
            self.log.push(format!("f={label}"));
            Ok(label)
        }
    }

    const DOC: &str = "answer[m[home[addr[x],zip[1]],school[dir[s]]],m[home[addr[y]]]]";

    #[test]
    fn dfs_prefix_spends_exactly_its_budget_in_document_order() {
        let mut c = Logged::over(DOC);
        let mut sum = Checksum::default();
        let (first, label) = first_answer(&mut c, &mut sum).unwrap().unwrap();
        assert_eq!(label.as_str(), "m");
        c.log.clear();
        dfs_prefix(&mut c, first, 14, &mut sum).unwrap();
        assert_eq!(
            c.log,
            [
                "d", "f=home", "d", "f=addr", "d", "f=x", "d", "r", "r", "f=zip", "d", "f=1", "d",
                "r"
            ]
        );
    }

    #[test]
    fn dfs_prefix_stops_when_the_document_ends() {
        let mut c = Logged::over("a[b[c]]");
        let mut sum = Checksum::default();
        let (first, _) = first_answer(&mut c, &mut sum).unwrap().unwrap();
        c.log.clear();
        dfs_prefix(&mut c, first, 100, &mut sum).unwrap();
        assert_eq!(c.log, ["d", "f=c", "d", "r", "r"]);
    }

    #[test]
    fn same_seed_same_commands_and_checksum() {
        let run = |seed: u64| {
            let mut c = Logged::over(DOC);
            let mut sum = Checksum::default();
            let (first, _) = first_answer(&mut c, &mut sum).unwrap().unwrap();
            wander(&mut c, first, seed, 10, &mut sum).unwrap();
            (c.log, sum)
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(42).0.len(), 12, "d, f and ten wander steps");
        assert!(
            (0..8).any(|s| run(s).0 != run(42).0),
            "the seed drives the wander"
        );
    }

    #[test]
    fn answers_rebuild_the_document_and_honour_the_limit() {
        let tree = parse_term(DOC).unwrap();
        let mut c = Logged::over(DOC);
        let mut sum = Checksum::default();
        let first = first_answer(&mut c, &mut sum).unwrap().unwrap();
        let all = answers(&mut c, first, usize::MAX, &mut sum).unwrap();
        assert_eq!(all, tree.children());
        let mut c = Logged::over(DOC);
        let mut limited = Checksum::default();
        let first = first_answer(&mut c, &mut limited).unwrap().unwrap();
        assert_eq!(
            answers(&mut c, first, 1, &mut limited).unwrap(),
            tree.children()[..1]
        );
        assert_ne!(sum, limited, "the checksum covers everything fetched");
    }

    #[test]
    fn checksum_separates_labels_and_structure() {
        let walk = |term: &str| {
            let mut c = Logged::over(term);
            let mut sum = Checksum::default();
            let (first, _) = first_answer(&mut c, &mut sum).unwrap().unwrap();
            dfs_prefix(&mut c, first, 50, &mut sum).unwrap();
            sum
        };
        assert_ne!(
            walk("a[b[c,d]]"),
            walk("a[b[c[d]]]"),
            "same labels, different shape"
        );
        assert_ne!(walk("a[bc[d]]"), walk("a[b[cd]]"));
    }
}
