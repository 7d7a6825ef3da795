//! Operator and subgraph signatures.
//!
//! SCOPE annotates operators with 64-bit signatures computed bottom-up from children
//! signatures, the operator name, and logical properties; Cleo extends the optimizer
//! to compute three more, one per individual model family (Section 5.1).  All four are
//! computed here from a [`PhysicalNode`] and the job metadata:
//!
//! * **operator-subgraph** — the exact subgraph template: root physical operator and
//!   every descendant operator (names + labels), order-sensitive;
//! * **operator-subgraphApprox** — root physical operator + the same inputs + the
//!   frequency of each *logical* operator underneath, ignoring ordering (Section 4.2);
//! * **operator-input** — root physical operator + the normalised input templates;
//! * **operator** — just the root physical operator.

use cleo_common::hash::{hash_str, StableHasher};
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind, LOGICAL_OP_NAMES};

/// The four individual model families of the paper, ordered from most specialised to
/// most general (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelFamily {
    /// One model per exact operator-subgraph template.
    OpSubgraph,
    /// One model per (root operator, input, approximate subgraph) combination.
    OpSubgraphApprox,
    /// One model per (root operator, input template) combination.
    OpInput,
    /// One model per physical operator.
    Operator,
}

impl ModelFamily {
    /// All families, most specialised first.
    pub fn all() -> [ModelFamily; 4] {
        [
            ModelFamily::OpSubgraph,
            ModelFamily::OpSubgraphApprox,
            ModelFamily::OpInput,
            ModelFamily::Operator,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::OpSubgraph => "Op-Subgraph",
            ModelFamily::OpSubgraphApprox => "Op-SubgraphApprox",
            ModelFamily::OpInput => "Op-Input",
            ModelFamily::Operator => "Operator",
        }
    }
}

/// The four signatures of one operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignatureSet {
    /// Exact subgraph signature.
    pub op_subgraph: u64,
    /// Approximate subgraph signature.
    pub op_subgraph_approx: u64,
    /// Operator + input template signature.
    pub op_input: u64,
    /// Per-operator signature.
    pub operator: u64,
}

impl SignatureSet {
    /// The signature used by a given family.
    pub fn for_family(&self, family: ModelFamily) -> u64 {
        match family {
            ModelFamily::OpSubgraph => self.op_subgraph,
            ModelFamily::OpSubgraphApprox => self.op_subgraph_approx,
            ModelFamily::OpInput => self.op_input,
            ModelFamily::Operator => self.operator,
        }
    }
}

const KINDS: usize = PhysicalOpKind::all().len();

/// A hasher that has been fed `kind.name()`, per physical operator kind (indexed
/// by the enum discriminant): three of the four signatures start with the
/// root's name, so its bytes are hashed when the crate is compiled, not on
/// every costing call.
static KIND_NAME_HASHERS: [StableHasher; KINDS] = {
    let kinds = PhysicalOpKind::all();
    let mut table = [StableHasher::new(); KINDS];
    let mut i = 0;
    while i < KINDS {
        table[kinds[i] as usize].write_str(kinds[i].name());
        i += 1;
    }
    table
};

/// Exact subgraph signature: operator name + label, combined with children signatures
/// in order (the recursive 64-bit hash of Section 5.1).
///
/// The value is **memoised on the node**: enumeration builds new parents over
/// already-signed shared children, so in steady state each signature costs one
/// cache read (for existing nodes) or one O(children) combine (for a freshly
/// built parent) — never an O(subtree) recursion, and no intermediate string
/// formatting.
pub fn subgraph_signature(node: &PhysicalNode) -> u64 {
    node.memo_subgraph_signature(|n| {
        let mut h = KIND_NAME_HASHERS[n.kind as usize];
        h.write_str(&n.label);
        for c in &n.children {
            h.write_u64(subgraph_signature(c));
        }
        h.finish()
    })
}

/// Normalised input template signature for a job: order- and
/// duplicate-insensitive over the normalised input names.
///
/// Each name is hashed first and the *hashes* are sorted and deduplicated (the
/// seed sorted the strings), which gives the same set-equality semantics —
/// identical input sets hash identically, different sets differ — without
/// materialising a `Vec<&str>`.  Jobs have a handful of inputs, so the common
/// case runs entirely on a stack buffer: this function sits inside every
/// costing call and must not touch the allocator.  It is a constant of the job:
/// the cost model derives it once per job and passes it to
/// [`signature_set_with_template`].
pub(crate) fn input_template_hash(meta: &JobMeta) -> u64 {
    const STACK_INPUTS: usize = 16;
    let inputs = &meta.normalized_inputs;
    let mut stack = [0u64; STACK_INPUTS];
    let mut heap: Vec<u64>;
    let hashes: &mut [u64] = if inputs.len() <= STACK_INPUTS {
        for (slot, name) in stack.iter_mut().zip(inputs) {
            *slot = hash_str(name);
        }
        &mut stack[..inputs.len()]
    } else {
        heap = inputs.iter().map(|s| hash_str(s)).collect();
        &mut heap
    };
    hashes.sort_unstable();
    let mut h = StableHasher::new();
    h.write_str("inputs");
    let mut previous = None;
    for &value in hashes.iter() {
        if previous != Some(value) {
            h.write_u64(value);
            previous = Some(value);
        }
    }
    h.finish()
}

/// Root-operator + input-template hash: the operator-input signature, and the
/// first word of the approximate-subgraph one.
fn root_input_hash(node: &PhysicalNode, input_template: u64) -> u64 {
    let mut h = KIND_NAME_HASHERS[node.kind as usize];
    h.write_u64(input_template);
    h.finish()
}

/// One entry of the approximate signature's frequency multiset: a logical
/// operator's name and how many operators under the root map onto it.
const fn frequency_entry(logical_name: &str, count: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(logical_name).write_u64(count);
    h.finish()
}

/// Counts up to this one read their [`frequency_entry`] from a table built at
/// compile time; plans rarely hold more operators of one logical kind.
const TABLED_COUNTS: usize = 16;

/// `FREQUENCY_ENTRIES[op][count - 1] == frequency_entry(LOGICAL_OP_NAMES[op], count)`.
static FREQUENCY_ENTRIES: [[u64; TABLED_COUNTS]; LOGICAL_OP_NAMES.len()] = {
    let mut table = [[0; TABLED_COUNTS]; LOGICAL_OP_NAMES.len()];
    let mut op = 0;
    while op < LOGICAL_OP_NAMES.len() {
        let mut count = 1;
        while count <= TABLED_COUNTS {
            table[op][count - 1] = frequency_entry(LOGICAL_OP_NAMES[op], count as u64);
            count += 1;
        }
        op += 1;
    }
    table
};

/// `root_input` combined with the sorted multiset of per-logical-operator
/// frequency entries under `node`.  The frequencies are the counts the node
/// cached at construction, so this sorts at most nine words on the stack and
/// never walks the subtree.
fn approx_signature_from_parts(node: &PhysicalNode, root_input: u64) -> u64 {
    let mut entries = [0u64; LOGICAL_OP_NAMES.len()];
    let mut len = 0;
    for (op, &count) in node.logical_counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        entries[len] = match FREQUENCY_ENTRIES[op].get(usize::from(count) - 1) {
            Some(&entry) => entry,
            None => frequency_entry(LOGICAL_OP_NAMES[op], u64::from(count)),
        };
        len += 1;
    }
    let entries = &mut entries[..len];
    entries.sort_unstable();
    let mut h = StableHasher::new();
    h.write_u64(root_input);
    for &entry in entries.iter() {
        h.write_u64(entry);
    }
    h.finish()
}

/// Approximate subgraph signature: root physical operator + input template + frequency
/// of each logical operator underneath (unordered).
pub fn subgraph_approx_signature(node: &PhysicalNode, meta: &JobMeta) -> u64 {
    approx_signature_from_parts(node, op_input_signature(node, meta))
}

/// Operator-input signature: root physical operator + input template.
pub fn op_input_signature(node: &PhysicalNode, meta: &JobMeta) -> u64 {
    root_input_hash(node, input_template_hash(meta))
}

/// Per-operator signature: the physical operator name.
pub fn operator_signature(node: &PhysicalNode) -> u64 {
    KIND_NAME_HASHERS[node.kind as usize].finish()
}

/// Compute all four signatures in one pass.  The subtree-shaped parts come from
/// what the node cached (the subgraph-signature memo and the logical-operator
/// counts), so repeated costing of the same operator never re-walks its subtree.
pub fn signature_set(node: &PhysicalNode, meta: &JobMeta) -> SignatureSet {
    signature_set_with_template(node, input_template_hash(meta))
}

/// [`signature_set`] for a caller that already holds the job's
/// [`input_template_hash`].
pub(crate) fn signature_set_with_template(
    node: &PhysicalNode,
    input_template: u64,
) -> SignatureSet {
    let root_input = root_input_hash(node, input_template);
    SignatureSet {
        op_subgraph: subgraph_signature(node),
        op_subgraph_approx: approx_signature_from_parts(node, root_input),
        op_input: root_input,
        operator: operator_signature(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId};

    fn meta(inputs: &[&str]) -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "sig".into(),
            normalized_inputs: inputs.iter().map(|s| s.to_string()).collect(),
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn chain(kinds: &[(PhysicalOpKind, &str)]) -> PhysicalNode {
        let mut node: Option<PhysicalNode> = None;
        for (kind, label) in kinds {
            let children = node.take().map(|n| vec![n]).unwrap_or_default();
            node = Some(PhysicalNode::new(*kind, *label, children));
        }
        node.unwrap()
    }

    #[test]
    fn identical_subgraphs_share_signatures() {
        let a = chain(&[
            (PhysicalOpKind::Extract, "clicks"),
            (PhysicalOpKind::Filter, "p>1"),
            (PhysicalOpKind::HashAggregate, "user"),
        ]);
        let b = a.clone();
        assert_eq!(subgraph_signature(&a), subgraph_signature(&b));
        let m = meta(&["clicks"]);
        assert_eq!(signature_set(&a, &m), signature_set(&b, &m));
    }

    #[test]
    fn different_roots_or_labels_change_subgraph_signature() {
        let a = chain(&[
            (PhysicalOpKind::Extract, "clicks"),
            (PhysicalOpKind::Filter, "p>1"),
        ]);
        let b = chain(&[
            (PhysicalOpKind::Extract, "clicks"),
            (PhysicalOpKind::Filter, "p>2"),
        ]);
        let c = chain(&[
            (PhysicalOpKind::Extract, "clicks"),
            (PhysicalOpKind::Project, "p>1"),
        ]);
        assert_ne!(subgraph_signature(&a), subgraph_signature(&b));
        assert_ne!(subgraph_signature(&a), subgraph_signature(&c));
    }

    #[test]
    fn approx_signature_ignores_operator_ordering() {
        // Filter→Project vs Project→Filter under the same aggregate root: the exact
        // signatures differ, the approximate ones match.
        let a = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Filter, "f"),
            (PhysicalOpKind::Project, "p"),
            (PhysicalOpKind::HashAggregate, "g"),
        ]);
        let b = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Project, "p"),
            (PhysicalOpKind::Filter, "f"),
            (PhysicalOpKind::HashAggregate, "g"),
        ]);
        let m = meta(&["t"]);
        assert_ne!(subgraph_signature(&a), subgraph_signature(&b));
        assert_eq!(
            subgraph_approx_signature(&a, &m),
            subgraph_approx_signature(&b, &m)
        );
    }

    #[test]
    fn op_input_signature_depends_on_inputs_not_structure() {
        let a = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Filter, "x"),
        ]);
        let deep = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Project, "p"),
            (PhysicalOpKind::Filter, "x"),
        ]);
        let m1 = meta(&["clicks_{date}"]);
        let m2 = meta(&["other"]);
        assert_eq!(op_input_signature(&a, &m1), op_input_signature(&deep, &m1));
        assert_ne!(op_input_signature(&a, &m1), op_input_signature(&a, &m2));
        // Input order and duplicates do not matter.
        let m3 = meta(&["b", "a"]);
        let m4 = meta(&["a", "b", "b"]);
        assert_eq!(op_input_signature(&a, &m3), op_input_signature(&a, &m4));
    }

    #[test]
    fn operator_signature_collapses_to_kind() {
        let a = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Filter, "x"),
        ]);
        let b = chain(&[
            (PhysicalOpKind::Extract, "u"),
            (PhysicalOpKind::Filter, "y"),
        ]);
        assert_eq!(operator_signature(&a), operator_signature(&b));
        assert_ne!(
            operator_signature(&a),
            operator_signature(&chain(&[(PhysicalOpKind::Sort, "k")]))
        );
    }

    #[test]
    fn family_lookup_maps_to_the_right_signature() {
        let n = chain(&[
            (PhysicalOpKind::Extract, "t"),
            (PhysicalOpKind::Filter, "x"),
        ]);
        let m = meta(&["t"]);
        let s = signature_set(&n, &m);
        assert_eq!(s.for_family(ModelFamily::OpSubgraph), s.op_subgraph);
        assert_eq!(s.for_family(ModelFamily::Operator), s.operator);
        assert_eq!(ModelFamily::all().len(), 4);
        assert_eq!(ModelFamily::OpSubgraph.name(), "Op-Subgraph");
    }
}
