"""Daily mobility networks, canonical signatures, and the motif census.

A user-day becomes a directed graph whose walk starts and ends at the home
parcel (constraint I); every node on a closed walk automatically has at
least one incoming and one outgoing edge (constraint II). One constructor
builds every network from a walk over keys (a day's parcels, an LBM walk's
labels for its ABM view, a template's stop tokens): consecutive repeats
are one visit, and nodes are numbered and labeled by first visit. The
network is the day's one record of its visits: `node_keys[i] for i in walk`
is its visit sequence, and its kind names its comparison regime. Two
comparison regimes exist: location-based (LBM), where only structure and
the pinned home node matter, and activity-based (ABM), where node labels
must be preserved. Canonical signatures are permutation-minimal adjacency
encodings, so signature equality is exactly isomorphism under the regime's
admissible mappings. Daily networks recur, so each process canonicalizes a
distinct input once and caches its string, at most SIGNATURE_CACHE_SIZE of
them.
"""

import functools
import itertools
from dataclasses import dataclass

from .annotate import UserDay

LBM = "lbm"
ABM = "abm"

HOME_LABEL = "H"

# activity code -> node label; codes 7 and 8 share the civic-service label
ACTIVITY_LABELS = {
    1: "R",
    2: "Ho",
    3: "U",
    4: "S",
    5: "C",
    6: "W",
    7: "Se",
    8: "Se",
    9: "Sh",
    10: "E",
    11: "T",
    12: "O",
}

# pseudo-location for points with no parcel context; one node per day
UNKNOWN_PARCEL = -1

# Canonicalizing an n-node network tries up to (n-1)! orderings: 5,040 at
# 8 nodes. The census's max_nodes may not exceed this cap either.
SIGNATURE_NODE_CAP = 8

# an entry (edge-set key plus string) of a 6-node network takes ~1.1 KB: ~1 MiB in all
SIGNATURE_CACHE_SIZE = 1024


@dataclass(slots=True)
class DailyNetwork:
    kind: str
    node_keys: tuple  # parcel ids (LBM), labels (ABM) or stop tokens, by first visit
    labels: tuple
    walk: tuple  # chronological node-index sequence, starts/ends at home

    @property
    def node_count(self) -> int:
        return len(self.node_keys)

    @property
    def edges(self) -> frozenset:  # ordered (i, j) node-index pairs, no self-loops
        return frozenset(zip(self.walk, self.walk[1:]))


def parcel_key(point):
    """A point's location key: its parcel id, or UNKNOWN_PARCEL."""
    return UNKNOWN_PARCEL if point.parcel_id is None else point.parcel_id


def _check_closed_walk(n: int, edges) -> None:
    """Raise when a network of more than one node has a node lacking an
    incoming or an outgoing edge, which no closed walk can produce."""
    if n <= 1:
        return
    indeg = [0] * n
    outdeg = [0] * n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    if not all(indeg[i] >= 1 and outdeg[i] >= 1 for i in range(n)):
        raise RuntimeError("closed walk produced a node without both edge directions")


def _walk_network(kind: str, keys, labels) -> DailyNetwork:
    """The network of a walk over node keys, labels[i] being the label of keys[i].

    Consecutive repeats of a key are one visit; nodes are numbered in order
    of first visit and take the label of that visit.
    """
    index: dict = {}
    node_labels = []
    walk = []
    prev = object()  # no key equals it
    for key, label in zip(keys, labels):
        if key == prev:
            continue
        prev = key
        if key not in index:
            index[key] = len(index)
            node_labels.append(label)
        walk.append(index[key])
    _check_closed_walk(len(index), zip(walk, walk[1:]))
    return DailyNetwork(kind, tuple(index), tuple(node_labels), tuple(walk))


def build_daily_network(day: UserDay, home_parcel_id: int) -> DailyNetwork | None:
    """The day's directed network, or None when its walk is open (it does
    not start and end at the home parcel). A day spent entirely at home
    yields the one-node network.
    """
    keys = [parcel_key(p) for p in day.points]
    if keys[0] != home_parcel_id or keys[-1] != home_parcel_id:
        return None
    labels = [HOME_LABEL if k == home_parcel_id else ACTIVITY_LABELS[p.activity_code]
              for k, p in zip(keys, day.points)]
    return _walk_network(LBM, keys, labels)


def abm_reduce(net: DailyNetwork) -> DailyNetwork:
    """Merge same-activity nodes while preserving the transition order.

    The walk is re-read as a label sequence and rebuilt as a walk over
    labels; self-loops created by merging disappear in the collapse.
    Idempotent, never increases the node count.
    """
    label_walk = [net.labels[i] for i in net.walk]
    return _walk_network(ABM, label_walk, label_walk)


def _permutation_groups(node_count: int, labels, pin_home: bool):
    """Index groups within which nodes are interchangeable for canonization."""
    fixed = [0] if pin_home else []
    free = [i for i in range(node_count) if not (pin_home and i == 0)]
    if labels is None:
        groups = [free] if free else []
    else:
        by_label: dict[str, list] = {}
        for i in free:
            by_label.setdefault(labels[i], []).append(i)
        groups = [by_label[lab] for lab in sorted(by_label)]
    return fixed, groups


def graph_signature(node_count: int, edges, labels=None, pin_home: bool = True) -> str:
    """Permutation-minimal encoding of a home-pinned directed graph.

    The adjacency matrix is emitted row-major as a bit string under every
    admissible node ordering (home first when pinned; label-sorted groups
    when labels are given) and the lexicographically smallest wins. Equal
    strings correspond exactly to isomorphic graphs under the same regime.
    Edges naming a node outside range(node_count) are ignored.

    Daily networks repeat, so each distinct (node_count, edges, labels,
    pin_home) input is canonicalized once per process and its string kept
    in a cache of at most SIGNATURE_CACHE_SIZE entries.
    """
    if node_count > SIGNATURE_NODE_CAP:
        raise ValueError(f"node count {node_count} above signature cap {SIGNATURE_NODE_CAP}")
    if node_count < 1:
        raise ValueError("empty graph")
    return _signature(node_count, frozenset(edges),
                      None if labels is None else tuple(labels), pin_home)


# typed, so a non-int node count still fails as before instead of hitting
# the entry of its equal int
@functools.lru_cache(maxsize=SIGNATURE_CACHE_SIZE, typed=True)
def _signature(node_count: int, edges: frozenset, labels, pin_home) -> str:
    fixed, groups = _permutation_groups(node_count, labels, pin_home)
    if labels is None:
        labelseq = ""
    else:
        labelseq = ",".join([labels[i] for i in fixed] + [labels[g[0]] for g in groups for _ in g])

    # filled by membership over range(node_count), so out-of-range edges
    # (negative ones included) never reach the table
    adj = [["1" if (r, c) in edges else "0" for c in range(node_count)]
           for r in range(node_count)]
    best = None
    for perm_combo in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = fixed + [i for grp in perm_combo for i in grp]
        bits = "".join([adj[r][c] for r in order for c in order])
        if best is None or bits < best:
            best = bits
    return f"{node_count}|{labelseq}|{best}"


def decode_signature(sig: str):
    """Signature string back to (node_count, edges, labels-or-None)."""
    n_str, labelseq, bits = sig.split("|")
    n = int(n_str)
    labels = tuple(labelseq.split(",")) if labelseq else None
    edges = {
        (r, c) for r in range(n) for c in range(n) if bits[r * n + c] == "1"
    }
    return n, edges, labels


def canonical_signature(net: DailyNetwork, pin_home: bool = True) -> str:
    """The network's signature string under the regime of its kind: labels
    count for an ABM network only."""
    labels = net.labels if net.kind == ABM else None
    return graph_signature(net.node_count, net.edges, labels, pin_home)


def census_signature(net: DailyNetwork, max_nodes: int = 6, pin_home: bool = True) -> str | None:
    """The network's signature string when it joins the motif census, which
    takes networks of 2..max_nodes nodes; None otherwise."""
    if 1 < net.node_count <= max_nodes:
        return canonical_signature(net, pin_home)
    return None


def size_group_label(node_count: int, max_nodes: int = 6) -> str:
    if node_count <= max_nodes:
        return str(node_count)
    return f"{max_nodes + 1}+"


@dataclass(slots=True)
class MotifEntry:
    rank: int
    signature: str
    node_count: int
    count: int
    percentage: float


@dataclass(slots=True)
class MotifCensus:
    kind: str
    total: int
    one_node_count: int
    motifs: list
    size_groups: dict  # label -> count

    def size_group_percentages(self) -> dict:
        if not self.total:
            return {k: 0.0 for k in self.size_groups}
        return {k: 100.0 * v / self.total for k, v in self.size_groups.items()}


def census_from_signatures(items, kind: str, cutoff: float = 0.005,
                           max_nodes: int = 6) -> MotifCensus:
    """Census over (node_count, census_signature) pairs of daily networks.

    One-node networks are tallied separately; networks above max_nodes
    (signature None) join only the largest size group. A class is a motif
    when its share of all networks strictly exceeds the cutoff; the list is
    ranked by frequency, ties by signature.
    """
    total = len(items)
    one_node = 0
    sig_counts: dict[str, int] = {}
    sig_nodes: dict[str, int] = {}
    size_groups = {str(n): 0 for n in range(1, max_nodes + 1)}
    size_groups[f"{max_nodes + 1}+"] = 0
    for n, sig in items:
        size_groups[size_group_label(n, max_nodes)] += 1
        if n == 1:
            one_node += 1
        elif n <= max_nodes:
            sig_counts[sig] = sig_counts.get(sig, 0) + 1
            sig_nodes[sig] = n
    motifs = []
    if total:
        qualifying = [
            (sig, c) for sig, c in sig_counts.items() if c / total > cutoff
        ]
        qualifying.sort(key=lambda kv: (-kv[1], kv[0]))
        motifs = [
            MotifEntry(rank, sig, sig_nodes[sig], c, 100.0 * c / total)
            for rank, (sig, c) in enumerate(qualifying, start=1)
        ]
    return MotifCensus(kind, total, one_node, motifs, size_groups)


def network_from_label_walk(label_walk) -> DailyNetwork:
    """Build a network directly from a walk of stop tokens.

    Tokens are location identities; a token's alphabetic prefix is its
    activity label ("W2" is a second distinct work location). "H" is home
    and must open and close the walk, so an empty walk is refused. The one
    reader of this rule: `synth` plants its templates from these networks.
    """
    if not label_walk or label_walk[0] != HOME_LABEL or label_walk[-1] != HOME_LABEL:
        raise ValueError(f"walk must start and end at home: {label_walk}")
    return _walk_network(LBM, label_walk, [t.rstrip("0123456789") for t in label_walk])
