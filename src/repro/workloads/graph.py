"""The paper's running example (Fig. 4): graph traversal.

    edges, nodes = malloc()
    for (i = 0; i < num_edges; i++)
        update_node(edges[i], edges[i].from, edges[i].to);

The edge array is scanned sequentially; the node array is accessed
indirectly through edge endpoints.  This interleaving is exactly what
defeats history-based prefetching (Leap) and page-granularity caching
(FastSwap) while Mira's analysis separates the two patterns into two
sections (Figs. 5-15).

Node elements are 128-byte records of which the traversal touches only
the leading 16 bytes (``value`` + ``visits``) -- the paper's "128 bytes is
the smallest size that can hold the accessed data unit" setup that makes
line-size choice (Fig. 9) and selective transmission matter.
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.types import F64, I64, INDEX, StructType
from repro.ir.verifier import verify
from repro.workloads.base import Workload
from repro.workloads.datagen import graph_edges, random_indices

EDGE_T = StructType("edge", (("src", I64), ("dst", I64), ("weight", F64)))
NODE_T = StructType(
    "node",
    (("value", F64), ("visits", I64))
    + tuple((f"pad{i}", F64) for i in range(14)),  # pad to 128 B
)


def make_graph_workload(
    num_edges: int = 6000,
    num_nodes: int = 2000,
    seed: int = 7,
    with_random_array: bool = False,
    random_elems: int = 4096,
) -> Workload:
    """The Fig. 4 traversal; ``with_random_array`` adds the third,
    uniformly-randomly accessed array of section 4.3 (Figs. 11/12)."""
    src, dst, weight = graph_edges(num_edges, num_nodes, seed)
    rand_idx = random_indices(num_edges, random_elems, seed + 1)

    def build_module():
        b = IRBuilder()
        with b.func("main", result_types=[F64]):
            # an AIFM port would use its vector/array types: edges in
            # chunked segments, nodes as one remotable record each
            edges = b.alloc(EDGE_T, num_edges, "edges",
                            obj_attrs={"aifm_obj_bytes": 1024})
            nodes = b.alloc(NODE_T, num_nodes, "nodes",
                            obj_attrs={"aifm_obj_bytes": NODE_T.byte_size})
            third = None
            if with_random_array:
                third = b.alloc(F64, random_elems, "third")
            zero = b.f64(0.0)
            with b.for_(0, num_edges, iter_args=[zero]) as loop:
                i, acc = loop.iv, loop.args[0]
                s = b.cast(b.load(edges, i, field="src"), INDEX)
                d = b.cast(b.load(edges, i, field="dst"), INDEX)
                w = b.load(edges, i, field="weight")
                # update_node(edges[i], edges[i].from, edges[i].to)
                sv = b.load(nodes, s, field="value")
                b.store(b.add(sv, w), nodes, s, field="value")
                dv = b.load(nodes, d, field="visits")
                b.store(b.add(dv, 1), nodes, d, field="visits")
                new_acc = b.add(acc, w)
                if third is not None:
                    # uniformly random accesses: a pseudo-random index
                    # stream the analysis cannot classify
                    r = b.rem(b.mul(i, 48271), random_elems)
                    tv = b.load(third, r)
                    b.store(b.add(tv, w), third, r)
                b.yield_([new_acc])
            b.ret([loop.results[0]])
        verify(b.module)
        return b.module

    def data_init(name, mrv):
        if name == "edges":
            mrv.fill([int(x) for x in src], field="src")
            mrv.fill([int(x) for x in dst], field="dst")
            mrv.fill([float(x) for x in weight], field="weight")

    expected = float(weight.sum())

    def check(results):
        got = results[0]
        assert abs(got - expected) < 1e-6 * max(1.0, abs(expected)), (
            f"graph traversal result {got} != expected {expected}"
        )

    return Workload(
        name="graph_traversal",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="Fig. 4 running example: sequential edges, indirect nodes",
        params={
            "num_edges": num_edges,
            "num_nodes": num_nodes,
            "with_random_array": with_random_array,
            "random_elems": random_elems,
        },
    )
