"""MCF-flavored kernel (paper section 6: SPEC-2006 429.mcf, single-depot
vehicle scheduling by network simplex).

The access shape that makes MCF "the least friendly to program analysis"
(section 6.1): a big arc array scanned sequentially whose tail/head fields
index the node array (indirect), plus pointer chasing along the
predecessor tree (value-dependent control flow through an scf.while the
static analysis cannot classify).

AIFM runs it through its array library at per-element remotable-object
granularity, which is what makes its metadata rival the data and collapse
below full memory (Fig. 18).
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.types import BoolType, F64, I64, INDEX, MemRefType, StructType
from repro.ir.verifier import verify
from repro.workloads.base import Workload
from repro.workloads.datagen import mcf_network

ARC_T = StructType("arc", (("tail", I64), ("head", I64), ("cost", F64), ("flow", F64)))
NODE_T = StructType(
    "node", (("potential", F64), ("pred", I64), ("depth", I64), ("mark", F64))
)


def make_mcf_workload(
    num_nodes: int = 16384,
    num_arcs: int = 16384,
    iterations: int = 2,
    chases: int = 128,
    seed: int = 13,
) -> Workload:
    tail, head, cost, pred, potential = mcf_network(num_nodes, num_arcs, seed)

    def build_module():
        b = IRBuilder()
        arcs_t = MemRefType(ARC_T)
        nodes_t = MemRefType(NODE_T)

        # price scan: reduced costs over all arcs (sequential arcs,
        # indirect nodes)
        with b.func("price_scan", [arcs_t, nodes_t], [F64], ["arcs", "nodes"]) as fn:
            arcs, nodes = fn.args
            init = b.f64(1e30)
            with b.for_(0, num_arcs, iter_args=[init]) as loop:
                i = loop.iv
                c = b.load(arcs, i, field="cost")
                t = b.cast(b.load(arcs, i, field="tail"), INDEX)
                h = b.cast(b.load(arcs, i, field="head"), INDEX)
                pt = b.load(nodes, t, field="potential")
                ph = b.load(nodes, h, field="potential")
                red = b.add(b.sub(c, pt), ph)
                b.yield_([b.min(loop.args[0], red)])
            b.ret([loop.results[0]])

        # flow update: sequential read-modify-write over arcs
        with b.func("update_flows", [arcs_t], [], ["arcs"]) as fn:
            arcs = fn.args[0]
            with b.for_(0, num_arcs) as loop:
                f = b.load(arcs, loop.iv, field="flow")
                b.store(b.add(f, 1.0), arcs, loop.iv, field="flow")

        # pointer chase: walk predecessor chains updating potentials
        # (value-dependent control flow; unanalyzable statically)
        with b.func("chase_update", [nodes_t], [F64], ["nodes"]) as fn:
            nodes = fn.args[0]
            total0 = b.f64(0.0)
            with b.for_(0, chases, iter_args=[total0]) as outer:
                start = b.rem(b.mul(outer.iv, 131), num_nodes)
                wh = b.while_([start, outer.args[0]])
                with wh.before() as (cur, acc):
                    not_root = b.cmp("gt", cur, 0)
                    b.condition(not_root, [cur, acc])
                with wh.body() as (cur, acc):
                    p = b.load(nodes, cur, field="potential")
                    b.store(b.add(p, 0.125), nodes, cur, field="potential")
                    nxt = b.cast(b.load(nodes, cur, field="pred"), INDEX)
                    b.yield_([nxt, b.add(acc, p)])
                b.yield_([wh.results[1]])
            b.ret([outer.results[0]])

        with b.func("main", result_types=[F64, F64]):
            arcs = b.alloc(
                ARC_T, num_arcs, "arcs", obj_attrs={"aifm_obj_bytes": ARC_T.byte_size}
            )
            nodes = b.alloc(
                NODE_T,
                num_nodes,
                "nodes",
                obj_attrs={"aifm_obj_bytes": NODE_T.byte_size},
            )
            best0 = b.f64(0.0)
            walked0 = b.f64(0.0)
            with b.for_(0, iterations, iter_args=[best0, walked0]) as loop:
                red = b.call("price_scan", [arcs, nodes], [F64]).results[0]
                b.call("update_flows", [arcs])
                walked = b.call("chase_update", [nodes], [F64]).results[0]
                b.yield_([b.add(loop.args[0], red), b.add(loop.args[1], walked)])
            b.ret([loop.results[0], loop.results[1]])
        verify(b.module)
        return b.module

    def data_init(name, mrv):
        if name == "arcs":
            mrv.fill([int(x) for x in tail], field="tail")
            mrv.fill([int(x) for x in head], field="head")
            mrv.fill([float(x) for x in cost], field="cost")
        elif name == "nodes":
            mrv.fill([float(x) for x in potential], field="potential")
            mrv.fill([int(x) for x in pred], field="pred")

    expected = _reference(tail, head, cost, pred, potential, iterations, chases,
                          num_nodes)

    def check(results):
        red_sum, walked = results
        assert abs(red_sum - expected[0]) < 1e-6 * max(1.0, abs(expected[0])), (
            red_sum,
            expected[0],
        )
        assert abs(walked - expected[1]) < 1e-6 * max(1.0, abs(expected[1])), (
            walked,
            expected[1],
        )

    return Workload(
        name="mcf",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="network-simplex kernel: indirect arc scan + pointer chase",
        params={
            "num_nodes": num_nodes,
            "num_arcs": num_arcs,
            "iterations": iterations,
            "chases": chases,
        },
    )


def _reference(tail, head, cost, pred, potential, iterations, chases, num_nodes):
    """Pure-Python reference of the kernel for the correctness check."""
    pot = list(map(float, potential))
    red_sum = 0.0
    walked_sum = 0.0
    for _ in range(iterations):
        best = 1e30
        for c, t, h in zip(cost, tail, head):
            best = min(best, float(c) - pot[t] + pot[h])
        red_sum += best
        walked = 0.0
        for s in range(chases):
            cur = (s * 131) % num_nodes
            while cur > 0:
                p = pot[cur]
                pot[cur] = p + 0.125
                walked += p
                cur = int(pred[cur])
        walked_sum += walked
    return red_sum, walked_sum
