"""Kernel graphs: validation, loop transforms, parsing, the builtin corpus."""

import json
import math
import random

import pytest

from cgraforge.arch import FuKind
from cgraforge.kernel import (
    BUILTIN_KERNELS,
    DfgEdge,
    DfgNode,
    KernelError,
    KernelGraph,
    TransformError,
    UnknownKernelError,
    apply_sw_params,
    load_kernel,
    parse_kernel,
    summarize,
    unroll,
    validate_graph,
    vectorize,
)
from helpers import accumulator_kernel, chain_kernel, random_dfg
from oracles import dependence_pairs, transformed_pairs_in_original_space


def graph(nodes, edges, trip=32, name="t"):
    return KernelGraph(name=name, nodes=nodes, edges=edges, trip_count=trip)


def node(nid, kind=FuKind.ADD, latency=1):
    return DfgNode(id=nid, kind=kind, latency=latency)


class TestValidateGraph:
    def test_valid_graph_passes(self):
        validate_graph(chain_kernel())
        validate_graph(accumulator_kernel())

    @pytest.mark.parametrize(
        "build, code",
        [
            (lambda: graph([node(0), node(0)], []), "DUPLICATE_NODE_ID"),
            (lambda: graph([], []), "EMPTY_GRAPH"),
            (lambda: graph([node(0)], [], trip=0), "TRIP_RANGE"),
            (lambda: graph([node(0, latency=0)], []), "LATENCY_RANGE"),
            (lambda: graph([node(0, latency=9)], []), "LATENCY_RANGE"),
            (lambda: graph([DfgNode(id=0, kind=FuKind.ADD, latency=1, lane_width=0)], []), "LANE_RANGE"),
            (lambda: graph([node(0)], [DfgEdge(src=0, dst=7, distance=0)]), "DANGLING_EDGE"),
            (lambda: graph([node(0), node(1)], [DfgEdge(src=0, dst=1, distance=-1)]), "DISTANCE_RANGE"),
            (lambda: graph([node(0)], [DfgEdge(src=0, dst=0, distance=0)]), "SELF_EDGE"),
            (
                lambda: graph([node(0), node(1)], [DfgEdge(src=0, dst=1, distance=1)]),
                "CARRIED_TARGET_NOT_PHI",
            ),
            (
                lambda: graph(
                    [node(0), node(1)],
                    [DfgEdge(src=0, dst=1, distance=0), DfgEdge(src=1, dst=0, distance=0)],
                ),
                "ZERO_DISTANCE_CYCLE",
            ),
        ],
    )
    def test_each_invariant(self, build, code):
        with pytest.raises(KernelError) as ei:
            validate_graph(build())
        assert ei.value.code == code

    def test_self_accumulation_is_allowed(self):
        validate_graph(graph([node(0, kind=FuKind.MAC)], [DfgEdge(src=0, dst=0, distance=1)]))

    def test_carried_edge_into_phi_is_allowed(self):
        validate_graph(
            graph(
                [node(0, kind=FuKind.PHI), node(1)],
                [DfgEdge(src=0, dst=1, distance=0), DfgEdge(src=1, dst=0, distance=1)],
            )
        )


class TestUnroll:
    def test_factor_one_is_identity(self):
        k = chain_kernel()
        assert unroll(k, 1) is k

    def test_node_and_edge_rewrite(self):
        k = accumulator_kernel(latency=2, trip_count=64)
        u = unroll(k, 2)
        assert u.name == "acc.u2"
        assert u.trip_count == 32
        assert [(n.id, n.kind, n.latency) for n in u.nodes] == [
            (0, FuKind.PHI, 2),
            (1, FuKind.PHI, 2),
            (2, FuKind.ADD, 2),
            (3, FuKind.ADD, 2),
        ]
        got = {(e.src, e.dst, e.distance) for e in u.edges}
        # intra-iteration edge (0 -> 1, d0) splits per copy; the carried
        # accumulator edge (1 -> 0, d1) chains copy 0 to copy 1 inside one
        # iteration and copy 1 back to copy 0 across the boundary
        assert got == {(0, 2, 0), (1, 3, 0), (2, 1, 0), (3, 0, 1)}

    def test_unrolled_phi_anchored_graph_revalidates(self):
        # carried edges into PHI nodes keep targeting PHI copies after
        # unrolling, so those graphs pass input validation again
        checked = []
        for name in BUILTIN_KERNELS:
            k = load_kernel(name)
            kinds = {n.id: n.kind for n in k.nodes}
            if any(e.distance > 0 and kinds[e.dst] is not FuKind.PHI for e in k.edges):
                continue
            for f in (2, 4):
                if k.trip_count % f == 0:
                    validate_graph(unroll(k, f))
            checked.append(name)
        assert "fir" in checked

    def test_unrolled_graph_is_structurally_sound(self):
        # a self-accumulating node unrolls into a copy chain whose carried
        # link targets a plain node, which the input-side PHI rule would
        # reject; the graph is still internally consistent for mapping
        rng = random.Random(5)
        for _ in range(50):
            k = random_dfg(rng, trip_count=24)
            for f in (2, 3, 4):
                u = unroll(k, f)
                ids = {n.id for n in u.nodes}
                assert len(ids) == len(k.nodes) * f
                assert len(u.edges) == len(k.edges) * f
                for e in u.edges:
                    assert e.src in ids and e.dst in ids
                    assert e.distance >= 0
                assert u.trip_count * f == k.trip_count

    def test_non_divisible_factor(self):
        with pytest.raises(TransformError) as ei:
            unroll(chain_kernel(trip_count=10), 3)
        assert ei.value.code == "NON_DIVISIBLE_FACTOR"
        assert ei.value.factor_field == "unroll_factor"
        assert ei.value.factor == 3 and ei.value.trip_count == 10

    def test_factor_below_one_rejected(self):
        with pytest.raises(TransformError):
            unroll(chain_kernel(), 0)


class TestVectorize:
    def test_factor_one_is_identity(self):
        k = chain_kernel()
        assert vectorize(k, 1) is k

    def test_lane_width_and_trip(self):
        k = chain_kernel(length=3, trip_count=64)
        v = vectorize(k, 4)
        assert v.name == "chain.v4"
        assert v.trip_count == 16
        assert all(n.lane_width == 4 for n in v.nodes)
        assert [(e.src, e.dst, e.distance) for e in v.edges] == [(0, 1, 0), (1, 2, 0)]

    def test_carried_distance_divides(self):
        k = accumulator_kernel(distance=4, trip_count=64)
        v = vectorize(k, 2)
        carried = [e for e in v.edges if e.distance > 0]
        assert carried == [DfgEdge(src=1, dst=0, distance=2)]

    def test_carried_distance_blocks(self):
        with pytest.raises(TransformError) as ei:
            vectorize(accumulator_kernel(distance=1), 2)
        assert ei.value.code == "CARRIED_DEP_BLOCKS_VECTORIZATION"

    def test_non_divisible_factor(self):
        with pytest.raises(TransformError) as ei:
            vectorize(chain_kernel(trip_count=10), 4)
        assert ei.value.code == "NON_DIVISIBLE_FACTOR"
        assert ei.value.factor_field == "vectorize_factor"


class TestApplySwParams:
    def test_unroll_runs_before_vectorize(self):
        # carried distance 4: unroll by 2 leaves distance 2 on the
        # cross-boundary copies, which vectorize by 2 then divides to 1
        k = accumulator_kernel(distance=4, trip_count=64)
        t = apply_sw_params(k, 2, 2)
        assert t.name == "acc.u2.v2"
        assert t.trip_count == 16
        assert all(n.lane_width == 2 for n in t.nodes)

    def test_dependence_pairs_preserved(self):
        rng = random.Random(99)
        for _ in range(30):
            k = random_dfg(rng, trip_count=24)
            base = dependence_pairs(k)
            for u, v in ((2, 1), (1, 2), (2, 2), (3, 1)):
                try:
                    t = apply_sw_params(k, u, v)
                except TransformError:
                    continue
                assert transformed_pairs_in_original_space(t, u, v) == base

    def test_identity_params(self):
        k = chain_kernel()
        assert apply_sw_params(k, 1, 1) is k


class TestParseKernel:
    def payload(self):
        return {
            "name": "toy",
            "trip_count": 8,
            "nodes": [
                {"id": 0, "kind": "LOAD", "latency": 2},
                {"id": 1, "kind": "ADD", "latency": 1},
            ],
            "edges": [{"src": 0, "dst": 1, "distance": 0}],
        }

    def test_round_trip(self):
        k = parse_kernel(json.dumps(self.payload()))
        assert k.name == "toy"
        assert [(n.id, n.kind, n.latency) for n in k.nodes] == [(0, FuKind.LOAD, 2), (1, FuKind.ADD, 1)]
        assert [(e.src, e.dst, e.distance) for e in k.edges] == [(0, 1, 0)]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(extra=1),
            lambda p: p["nodes"][0].update(width=8),
            lambda p: p["nodes"][0].pop("latency"),
            lambda p: p["edges"][0].pop("dst"),
            lambda p: p["edges"][0].update(weight=2),
            lambda p: p.update(trip_count=True),
        ],
    )
    def test_strict_shapes(self, mutate):
        p = self.payload()
        mutate(p)
        with pytest.raises(KernelError):
            parse_kernel(json.dumps(p))

    @staticmethod
    def chain_text(length: int, ring: bool) -> str:
        edges = [{"src": i, "dst": i + 1, "distance": 0} for i in range(length - 1)]
        if ring:
            edges.append({"src": length - 1, "dst": 0, "distance": 0})
        nodes = [{"id": i, "kind": "ADD", "latency": 1} for i in range(length)]
        return json.dumps({"name": "long", "trip_count": 8, "nodes": nodes, "edges": edges})

    def test_long_chain_parses(self):
        assert len(parse_kernel(self.chain_text(1500, ring=False)).nodes) == 1500

    def test_long_zero_distance_ring_is_a_cycle(self):
        with pytest.raises(KernelError) as ei:
            parse_kernel(self.chain_text(1500, ring=True))
        assert ei.value.code == "ZERO_DISTANCE_CYCLE"
        assert ei.value.message.endswith(f"nodes {list(range(1500)) + [0]}")

    def test_invalid_graph_rejected_at_parse(self):
        p = self.payload()
        p["nodes"].append({"id": 0, "kind": "ADD", "latency": 1})
        with pytest.raises(KernelError) as ei:
            parse_kernel(json.dumps(p))
        assert ei.value.code == "DUPLICATE_NODE_ID"


class TestCorpus:
    def test_every_builtin_validates(self):
        for name in BUILTIN_KERNELS:
            validate_graph(load_kernel(name))

    def test_corpus_has_expected_members(self):
        expected = {"conv", "embedded_mix", "fft", "fir", "gemm", "hpc_mix", "latnrm", "ml_mix", "mvt", "relu", "spmv"}
        assert expected <= set(BUILTIN_KERNELS)

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownKernelError):
            load_kernel("quicksort")

    def test_load_kernel_accepts_path(self, tmp_path):
        p = tmp_path / "toy.json"
        p.write_text(
            json.dumps(
                {
                    "name": "toy",
                    "trip_count": 4,
                    "nodes": [{"id": 0, "kind": "ADD", "latency": 1}],
                    "edges": [],
                }
            )
        )
        assert load_kernel(str(p)).name == "toy"

    def test_an_edited_path_kernel_is_parsed_again(self, tmp_path):
        """A path is read on every load: its text gives one shared object
        until the file is edited, and then the kernel of the new text."""
        p = tmp_path / "toy.json"
        doc = {"name": "toy", "trip_count": 4, "nodes": [{"id": 0, "kind": "ADD", "latency": 1}], "edges": []}
        p.write_text(json.dumps(doc))
        first = load_kernel(str(p))
        assert load_kernel(str(p)) is first
        p.write_text(json.dumps({**doc, "trip_count": 8}))
        assert load_kernel(str(p)).trip_count == 8


class TestSummarize:
    def test_counts_and_gcd(self):
        k = graph(
            [node(0, kind=FuKind.PHI), node(1, kind=FuKind.MUL, latency=3), node(2, kind=FuKind.MUL)],
            [
                DfgEdge(src=0, dst=1, distance=0),
                DfgEdge(src=1, dst=0, distance=4),
                DfgEdge(src=2, dst=0, distance=6),
            ],
            trip=16,
        )
        s = summarize(k)
        assert s.node_count == 3
        assert s.op_census[FuKind.MUL.name] == 2
        assert s.carried_edge_count == 2
        assert s.carried_distance_gcd == math.gcd(4, 6)
        assert s.trip_count == 16
        assert s.total_latency == 5

    def test_gcd_zero_without_carried_edges(self):
        assert summarize(chain_kernel()).carried_distance_gcd == 0
