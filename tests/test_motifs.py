import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifmine import motifs
from motifmine.annotate import UserDay
from motifmine.motifs import (
    ABM,
    LBM,
    _check_closed_walk,
    abm_reduce,
    build_daily_network,
    canonical_signature,
    census_from_signatures,
    decode_signature,
    census_signature,
    graph_signature,
    network_from_label_walk,
    size_group_label,
)

from conftest import apoint
from oracles import (
    brute_force_isomorphic,
    collapse_label_sequence,
    graphs_isomorphic,
    isomorphic,
    walk_network,
)

HOME = 1  # the home parcel id


def day_from_parcels(parcel_codes):
    """parcel_codes: [(parcel_id, activity_code)] in chronological order."""
    pts = [
        apoint(ts=i * 600, parcel=pid, code=code, local=i * 600)
        for i, (pid, code) in enumerate(parcel_codes)
    ]
    return UserDay(date(2014, 6, 2), pts, slot_count=len(pts))


class TestBuildDailyNetwork:
    def test_home_office_home(self):
        day = day_from_parcels([(1, 1), (2, 6), (1, 1)])
        net = build_daily_network(day, HOME)
        assert net is not None
        assert net.node_count == 2
        assert net.labels == ("H", "W")
        assert net.edges == frozenset({(0, 1), (1, 0)})
        assert net.walk == (0, 1, 0)

    def test_consecutive_same_parcel_collapses(self):
        day = day_from_parcels([(1, 1)] * 4 + [(2, 6)] * 3 + [(1, 1)] * 2)
        net = build_daily_network(day, HOME)
        assert net.walk == (0, 1, 0)

    def test_all_day_at_home_is_one_node(self):
        day = day_from_parcels([(1, 1)] * 10)
        net = build_daily_network(day, HOME)
        assert net is not None
        assert net.node_count == 1
        assert net.edges == frozenset()
        assert net.walk == (0,)

    def test_open_walk_rejected(self):
        day = day_from_parcels([(2, 6), (1, 1), (2, 6)])
        net = build_daily_network(day, HOME)
        assert net is None

    def test_closed_walk_check_raises_without_assert(self):
        # an explicit raise, so the check also runs under python -O
        _check_closed_walk(2, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(RuntimeError, match="closed walk"):
            _check_closed_walk(2, frozenset({(0, 1)}))

    def test_labels_home_vs_other_residential(self):
        day = day_from_parcels([(1, 1), (9, 1), (1, 1)])
        net = build_daily_network(day, HOME)
        assert net.labels == ("H", "R")

    def test_unanchored_points_form_one_pseudo_location(self):
        day = day_from_parcels([(1, 1), (None, 12), (2, 6), (None, 12), (1, 1)])
        net = build_daily_network(day, HOME)
        # both unanchored runs land on the same node labeled O
        assert net.node_count == 3
        assert net.labels == ("H", "O", "W")
        assert net.walk == (0, 1, 2, 1, 0)

    def test_constraint_two_holds_for_random_closed_walks(self):
        rng = random.Random(17)
        for _ in range(200):
            length = rng.randrange(2, 9)
            walk = [1]
            for _ in range(length - 1):
                nxt = rng.choice([p for p in (1, 2, 3, 4) if p != walk[-1]])
                walk.append(nxt)
            walk.append(1)
            codes = {1: 1, 2: 6, 3: 9, 4: 1}
            day = day_from_parcels([(p, codes[p]) for p in walk])
            net = build_daily_network(day, HOME)
            assert net is not None
            indeg = {i: 0 for i in range(net.node_count)}
            outdeg = {i: 0 for i in range(net.node_count)}
            for u, v in net.edges:
                outdeg[u] += 1
                indeg[v] += 1
            if net.node_count > 1:
                assert all(indeg[i] >= 1 and outdeg[i] >= 1 for i in indeg)


class TestAbmReduce:
    def test_two_work_parcels_merge(self):
        day = day_from_parcels([(1, 1), (2, 6), (3, 6), (1, 1)])
        net = build_daily_network(day, HOME)
        reduced = abm_reduce(net)
        assert reduced.node_count == 2
        assert set(reduced.labels) == {"H", "W"}
        assert reduced.edges == frozenset({(0, 1), (1, 0)})

    def test_distinct_labels_keep_structure(self):
        day = day_from_parcels([(1, 1), (2, 6), (3, 9), (1, 1)])
        net = build_daily_network(day, HOME)
        reduced = abm_reduce(net)
        assert reduced.node_count == 3
        assert reduced.labels == ("H", "W", "Sh")
        assert reduced.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_two_residences_collapse_to_pendulum(self):
        # walk H R H R H over two distinct friend homes
        day = day_from_parcels([(1, 1), (5, 1), (1, 1), (6, 1), (1, 1)])
        net = build_daily_network(day, HOME)
        reduced = abm_reduce(net)
        label_walk = [net.labels[i] for i in net.walk]
        assert collapse_label_sequence(label_walk) == ["H", "R", "H", "R", "H"]
        assert reduced.node_count == 2
        assert set(reduced.labels) == {"H", "R"}
        assert reduced.edges == frozenset({(0, 1), (1, 0)})

    def test_idempotent_and_never_grows(self):
        rng = random.Random(23)
        codes = {1: 1, 2: 6, 3: 6, 4: 9, 5: 1, 6: 11}
        for _ in range(150):
            walk = [1]
            for _ in range(rng.randrange(1, 10)):
                walk.append(rng.choice([p for p in codes if p != walk[-1]]))
            walk.append(1)
            if walk[-2] == 1:
                walk.pop()
            day = day_from_parcels([(p, codes[p]) for p in walk])
            net = build_daily_network(day, HOME)
            if net is None:
                continue
            reduced = abm_reduce(net)
            assert reduced.node_count <= net.node_count
            again = abm_reduce(reduced)
            assert again.node_count == reduced.node_count
            assert again.edges == reduced.edges
            assert again.labels == reduced.labels
            assert again.walk == reduced.walk


# parcel id -> (activity code, node label with home on parcel 1); parcel 2
# is a residence other than home, parcels 3 and 5 are two workplaces, and
# None is a point with no parcel within the join radius
WALK_PARCELS = {1: (1, "H"), 2: (1, "R"), 3: (6, "W"), 4: (9, "Sh"), 5: (6, "W"), None: (12, "O")}


def network_fields(net):
    return net.node_keys, net.labels, net.edges, net.walk


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stops=st.lists(st.sampled_from(list(WALK_PARCELS)), min_size=1, max_size=14),
       close=st.booleans())
def test_walk_constructors_match_the_reference(stops, close):
    if close:  # otherwise mostly open walks
        stops = [1, *stops, 1]
    day = day_from_parcels([(pid, WALK_PARCELS[pid][0]) for pid in stops])
    keys = [motifs.UNKNOWN_PARCEL if pid is None else pid for pid in stops]
    net = build_daily_network(day, HOME)
    if keys[0] != 1 or keys[-1] != 1:
        assert net is None
        return
    assert net.kind == LBM
    assert network_fields(net) == walk_network(keys, [WALK_PARCELS[pid][1] for pid in stops])
    # the network holds the day's visit sequence
    assert [net.node_keys[i] for i in net.walk] == collapse_label_sequence(keys)

    reduced = abm_reduce(net)
    collapsed = collapse_label_sequence([net.labels[i] for i in net.walk])
    assert reduced.kind == ABM
    assert [reduced.labels[i] for i in reduced.walk] == collapsed
    assert network_fields(reduced) == walk_network(collapsed, collapsed)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(visits=st.lists(st.tuples(st.integers(0, 4), st.sampled_from("abc")), max_size=12))
def test_walk_network_labels_each_node_from_its_first_visit(visits):
    # labels that vary between visits of one key, which no caller produces
    keys, labels = zip(*[(0, "h"), *visits, (0, "z")])
    assert network_fields(motifs._walk_network(ABM, keys, labels)) == walk_network(keys, labels)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(middle=st.lists(st.sampled_from(["H", "W", "W2", "Sh", "R1", "R2", "E"]), max_size=10))
def test_network_from_label_walk_matches_the_reference(middle):
    tokens = ("H", *middle, "H")
    net = network_from_label_walk(tokens)
    assert net.kind == LBM
    assert network_fields(net) == walk_network(tokens, [t.rstrip("0123456789") for t in tokens])


class TestCanonicalSignature:
    def test_relabeling_same_signature(self):
        a = day_from_parcels([(1, 1), (2, 6), (1, 1)])
        b = day_from_parcels([(1, 1), (9, 9), (1, 1)])
        net_a = build_daily_network(a, HOME)
        net_b = build_daily_network(b, HOME)
        assert canonical_signature(net_a) == canonical_signature(net_b)

    def test_swapping_intermediate_stops_same_lbm_signature(self):
        a = day_from_parcels([(1, 1), (2, 6), (3, 9), (1, 1)])  # H A B H
        b = day_from_parcels([(1, 1), (3, 9), (2, 6), (1, 1)])  # H B A H
        net_a = build_daily_network(a, HOME)
        net_b = build_daily_network(b, HOME)
        sig_a = canonical_signature(net_a)
        sig_b = canonical_signature(net_b)
        assert sig_a == sig_b
        # the permutation oracle agrees the two are isomorphic
        assert brute_force_isomorphic(3, net_a.edges, 3, net_b.edges)

    def test_abm_label_mismatch_differs(self):
        work = day_from_parcels([(1, 1), (2, 6), (1, 1)])
        school = day_from_parcels([(1, 1), (2, 4), (1, 1)])
        net_w = build_daily_network(work, HOME)
        net_s = build_daily_network(school, HOME)
        red_w, red_s = abm_reduce(net_w), abm_reduce(net_s)
        assert canonical_signature(red_w) != canonical_signature(red_s)

    def test_signature_decode_roundtrip(self):
        edges = {(0, 1), (1, 2), (2, 0), (0, 2)}
        sig = graph_signature(3, edges)
        n, decoded, labels = decode_signature(sig)
        assert n == 3 and labels is None
        assert graph_signature(3, decoded) == sig

    def test_node_cap_enforced(self):
        assert graph_signature(motifs.SIGNATURE_NODE_CAP, set())
        with pytest.raises(ValueError):
            graph_signature(motifs.SIGNATURE_NODE_CAP + 1, set())
        with pytest.raises(ValueError):
            graph_signature(0, set())

    def test_abm_signature_invariant_to_presentation_order(self):
        # same labeled structure presented with nodes in different order
        edges_a = {(0, 1), (1, 0), (0, 2), (2, 0)}
        labels_a = ("H", "W", "R")
        edges_b = {(0, 2), (2, 0), (0, 1), (1, 0)}
        labels_b = ("H", "R", "W")
        assert graph_signature(3, edges_a, labels_a) == graph_signature(3, edges_b, labels_b)


def random_digraph(rng, n, p=0.4):
    return {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    }


def relabeled(edges, n, rng, labels=None):
    perm = list(range(1, n))
    rng.shuffle(perm)
    mapping = {0: 0, **dict(zip(range(1, n), perm))}
    new_edges = {(mapping[u], mapping[v]) for u, v in edges}
    if labels is None:
        return new_edges, None
    new_labels = [None] * n
    for old, new in mapping.items():
        new_labels[new] = labels[old]
    return new_edges, tuple(new_labels)


class TestIsomorphic:
    def test_network_vs_itself(self):
        net = build_daily_network(day_from_parcels([(1, 1), (2, 6), (1, 1)]), HOME)
        assert isomorphic(net, net, LBM)
        assert isomorphic(net, net, ABM)

    def test_different_cardinality(self):
        two = build_daily_network(day_from_parcels([(1, 1), (2, 6), (1, 1)]), HOME)
        three = build_daily_network(day_from_parcels([(1, 1), (2, 6), (3, 9), (1, 1)]), HOME)
        assert not isomorphic(two, three, LBM)

    def test_directed_cycle_vs_reversal(self):
        fwd = build_daily_network(day_from_parcels([(1, 1), (2, 6), (3, 9), (1, 1)]), HOME)
        rev = build_daily_network(day_from_parcels([(1, 1), (3, 9), (2, 6), (1, 1)]), HOME)
        assert isomorphic(fwd, rev, LBM)

    def test_agrees_with_signature_and_oracle_random_pairs(self):
        rng = random.Random(4242)
        label_pool = ["H", "W", "R", "Sh"]
        for _ in range(400):
            n = rng.randrange(2, 6)
            e1 = random_digraph(rng, n)
            if rng.random() < 0.5:
                e2, _ = relabeled(e1, n, rng)
            else:
                e2 = random_digraph(rng, n)
            got = graphs_isomorphic(n, e1, n, e2)
            want = brute_force_isomorphic(n, e1, n, e2)
            assert got == want
            assert (graph_signature(n, e1) == graph_signature(n, e2)) == want

    def test_labeled_agreement_with_oracle(self):
        rng = random.Random(777)
        for _ in range(300):
            n = rng.randrange(2, 6)
            labels1 = tuple(["H"] + [rng.choice(["W", "R", "Sh"]) for _ in range(n - 1)])
            e1 = random_digraph(rng, n)
            if rng.random() < 0.5:
                e2, labels2 = relabeled(e1, n, rng, labels1)
            else:
                e2 = random_digraph(rng, n)
                labels2 = tuple(["H"] + [rng.choice(["W", "R", "Sh"]) for _ in range(n - 1)])
            got = graphs_isomorphic(n, e1, n, e2, labels1, labels2)
            want = brute_force_isomorphic(n, e1, n, e2, labels1, labels2)
            assert got == want
            sig_equal = graph_signature(n, e1, labels1) == graph_signature(n, e2, labels2)
            assert sig_equal == want

    def test_home_pinning_distinguishes_star_from_chain(self):
        # bidirectional 3-path with home at the center vs at an end:
        # indistinguishable unpinned, distinct when home is pinned
        star = {(0, 1), (1, 0), (0, 2), (2, 0)}
        chain = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert graphs_isomorphic(3, star, 3, chain, pin_home=False)
        assert not graphs_isomorphic(3, star, 3, chain, pin_home=True)
        assert graph_signature(3, star, pin_home=False) == graph_signature(3, chain, pin_home=False)
        assert graph_signature(3, star) != graph_signature(3, chain)


@st.composite
def closed_walk_graph(draw, labeled: bool):
    """(node_count, edges, labels or None) of a closed walk from home over
    2-6 nodes, numbered in order of first visit as build_daily_network does."""
    stops = draw(st.lists(st.integers(1, 5), min_size=1, max_size=10))
    walk = [0] + stops + [0]
    walk = walk[:1] + [b for a, b in zip(walk, walk[1:]) if a != b]
    index: dict[int, int] = {}
    walk = [index.setdefault(node, len(index)) for node in walk]
    n = len(index)
    labels = None
    if labeled:
        others = draw(st.lists(st.sampled_from(["W", "R", "Sh"]), min_size=n - 1, max_size=n - 1))
        labels = ("H", *others)
    return n, frozenset(zip(walk, walk[1:])), labels


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), labeled=st.booleans(), pin_home=st.booleans(), relabel=st.booleans())
def test_signature_equality_is_isomorphism_on_closed_walks(data, labeled, pin_home, relabel):
    n1, e1, l1 = data.draw(closed_walk_graph(labeled))
    if relabel:  # the same graph under an admissible node renumbering
        movable = list(range(1 if pin_home else 0, n1))
        mapping = dict(enumerate(range(n1)))
        mapping.update(zip(movable, data.draw(st.permutations(movable))))
        n2, e2 = n1, frozenset((mapping[u], mapping[v]) for u, v in e1)
        l2 = None
        if l1 is not None:
            l2 = [None] * n1
            for old, new in mapping.items():
                l2[new] = l1[old]
            l2 = tuple(l2)
    else:
        n2, e2, l2 = data.draw(closed_walk_graph(labeled))
    sig1 = graph_signature(n1, e1, l1, pin_home)
    sig2 = graph_signature(n2, e2, l2, pin_home)
    want = brute_force_isomorphic(n1, e1, n2, e2, l1, l2, pin_home)
    assert (sig1 == sig2) == want
    if relabel:
        assert want
    # a repeated call, served from the cache, returns the same string as
    # canonicalizing afresh
    assert graph_signature(n1, set(e1), l1, pin_home) == sig1
    assert motifs._signature.__wrapped__(n1, e1, l1, pin_home) == sig1


class TestSignatureCache:
    STAR = {(0, 1), (1, 0), (0, 2), (2, 0)}
    CHAIN = {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_equal_inputs_in_other_containers_share_an_entry(self):
        motifs._signature.cache_clear()
        edges = {(0, 1), (1, 2), (2, 0)}
        sig = graph_signature(3, edges, ["H", "W", "Sh"])
        assert graph_signature(3, frozenset(edges), ("H", "W", "Sh")) == sig
        assert graph_signature(3, sorted(edges), ("H", "W", "Sh")) == sig
        info = motifs._signature.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_labels_and_pinning_are_part_of_the_key(self):
        motifs._signature.cache_clear()
        unpinned = graph_signature(3, self.STAR, pin_home=False)
        assert graph_signature(3, self.CHAIN, pin_home=False) == unpinned
        # computed after the unpinned entries exist, pinning still separates them
        assert graph_signature(3, self.STAR) != graph_signature(3, self.CHAIN)
        labeled = graph_signature(3, self.STAR, ("H", "W", "W"))
        assert labeled != graph_signature(3, self.STAR)
        assert labeled.split("|")[1] == "H,W,W"
        assert motifs._signature.cache_info().currsize == 5

    def test_out_of_range_edges_are_ignored(self):
        pendulum = {(0, 1), (1, 0)}
        stray = pendulum | {(0, 2), (2, 0), (-1, 0), (1, -1), (5, 5)}
        assert graph_signature(2, stray) == graph_signature(2, pendulum) == "2||0110"
        assert graph_signature(2, stray, pin_home=False) == "2||0110"
        assert graph_signature(2, stray, ("H", "W")) == "2|H,W|0110"


class TestCensus:
    def sig(self, walk):
        return canonical_signature(network_from_label_walk(walk))

    def census(self, nets, max_nodes=6):
        items = [(net.node_count, census_signature(net, max_nodes)) for net in nets]
        return census_from_signatures(items, LBM, max_nodes=max_nodes)

    def test_cutoff_is_strict(self):
        pendulum = self.sig(("H", "W", "H"))
        tour = self.sig(("H", "W", "Sh", "H"))
        items = [(2, pendulum)] * 995 + [(3, tour)] * 5
        census = census_from_signatures(items, LBM)
        assert [m.signature for m in census.motifs] == [pendulum]  # 0.5% exactly: excluded
        items = [(2, pendulum)] * 994 + [(3, tour)] * 6
        census = census_from_signatures(items, LBM)
        assert tour in [m.signature for m in census.motifs]

    def test_percentages_and_one_node_separate(self):
        nets = []
        for _ in range(50):
            nets.append(network_from_label_walk(("H", "W", "H")))
        for _ in range(30):
            nets.append(network_from_label_walk(("H", "W", "Sh", "H")))
        for _ in range(20):
            nets.append(network_from_label_walk(("H",)))
        census = self.census(nets)
        assert census.total == 100
        assert census.one_node_count == 20
        by_sig = {m.signature: m for m in census.motifs}
        assert by_sig[self.sig(("H", "W", "H"))].percentage == pytest.approx(50.0)
        assert by_sig[self.sig(("H", "W", "Sh", "H"))].percentage == pytest.approx(30.0)
        assert census.motifs[0].rank == 1
        assert census.motifs[0].count == 50
        assert sum(census.size_group_percentages().values()) == pytest.approx(100.0)

    def test_census_invariant_under_input_permutation(self):
        rng = random.Random(5)
        walks = [("H", "W", "H"), ("H", "W", "Sh", "H"), ("H",), ("H", "R1", "H", "R2", "H")]
        nets = [network_from_label_walk(rng.choice(walks)) for _ in range(500)]
        census_a = self.census(nets)
        shuffled = nets[:]
        rng.shuffle(shuffled)
        census_b = self.census(shuffled)
        assert [(m.signature, m.count) for m in census_a.motifs] == [
            (m.signature, m.count) for m in census_b.motifs
        ]
        assert census_a.size_groups == census_b.size_groups

    def test_oversize_networks_only_in_size_bucket(self):
        tokens = ["H"] + [f"W{i}" for i in range(7)]
        walk = []
        for t in tokens:
            walk += [t]
        walk += ["H"]
        big = network_from_label_walk(tuple(walk))
        assert big.node_count == 8
        assert census_signature(big, max_nodes=6) is None
        assert census_signature(big, max_nodes=8) == self.sig(tuple(walk))
        census = self.census([big], max_nodes=6)
        assert census.size_groups["7+"] == 1
        assert not census.motifs

    def test_empty_census_is_valid(self):
        census = census_from_signatures([], LBM)
        assert census.total == 0 and census.motifs == []


def test_size_group_label():
    assert size_group_label(1) == "1"
    assert size_group_label(6) == "6"
    assert size_group_label(7) == "7+"
    assert size_group_label(30) == "7+"


def test_network_from_label_walk_requires_home_ends():
    with pytest.raises(ValueError):
        network_from_label_walk(("W", "H"))


def test_network_from_label_walk_refuses_an_empty_walk():
    with pytest.raises(ValueError, match=r"start and end at home: \(\)"):
        network_from_label_walk(())
