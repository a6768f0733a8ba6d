"""Micro-benchmark: a simple loop summing an array (paper section 6.1,
runtime/metadata overhead measurements alongside the real applications)."""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.types import F64
from repro.ir.verifier import verify
from repro.workloads.base import Workload


def make_array_sum_workload(num_elems: int = 32768, seed: int = 3) -> Workload:
    import numpy as np

    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=num_elems)

    def build_module():
        b = IRBuilder()
        with b.func("main", result_types=[F64]):
            arr = b.alloc(F64, num_elems, "arr")
            zero = b.f64(0.0)
            with b.for_(0, num_elems, iter_args=[zero]) as loop:
                v = b.load(arr, loop.iv)
                b.yield_([b.add(loop.args[0], v)])
            b.ret([loop.results[0]])
        verify(b.module)
        return b.module

    def data_init(name, mrv):
        if name == "arr":
            mrv.fill([float(x) for x in values])

    expected = float(values.sum())

    def check(results):
        assert abs(results[0] - expected) < 1e-6 * max(1.0, abs(expected))

    return Workload(
        name="array_sum",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="simple loop over an array summing its values",
        params={"num_elems": num_elems},
    )
