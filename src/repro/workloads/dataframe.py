"""Mini DataFrame engine (paper section 6: DataFrame [34] on NYC taxi
data).

Columnar tables with the operators the paper's evaluation exercises:

* ``avg_fare`` / ``min_fare`` / ``max_fare`` -- sequential reductions
  (the three-operator job of Fig. 23 when inlined as adjacent loops);
* ``filter_long`` -- predicate scan writing a result vector (the
  writable-shared multithreading test of Fig. 25);
* ``group_by_hour`` -- histogram aggregation with indirect writes.

Two builders: :func:`make_dataframe_workload` (operators as functions --
what the profiler and offload analysis see) and
:func:`make_dataframe_amm_workload` (avg/min/max as three adjacent
top-level loops -- the loop-fusion/batching target of Fig. 23).
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.types import F64, I64, INDEX, MemRefType
from repro.ir.verifier import verify
from repro.workloads.base import Workload
from repro.workloads.datagen import taxi_table

LONG_TRIP_KM = 5.0
HOURS = 24


def _filter_body(b, distance, out, i):
    v = b.load(distance, i)
    flag = b.cmp("gt", v, LONG_TRIP_KM)
    b.store(b.cast(flag, I64), out, i)
    return flag


def make_dataframe_workload(
    num_rows: int = 16384,
    seed: int = 11,
    num_threads: int = 1,
    num_locations: int = 65536,
) -> Workload:
    import numpy as np

    hour, distance, fare, passengers = taxi_table(num_rows, seed)
    rng = np.random.default_rng(seed + 1)
    location = rng.integers(0, num_locations, size=num_rows).astype(np.int64)
    perm = rng.permutation(num_rows).astype(np.int64)
    #: an AIFM port of DataFrame keeps columns in chunked remote vectors
    AIFM_CHUNK = {"aifm_obj_bytes": 4096}

    def build_module():
        b = IRBuilder()
        f64ref = MemRefType(F64)
        i64ref = MemRefType(I64)

        with b.func("avg_fare", [f64ref], [F64], ["fare"]) as fn:
            col = fn.args[0]
            zero = b.f64(0.0)
            with b.for_(0, num_rows, iter_args=[zero]) as loop:
                v = b.load(col, loop.iv)
                b.yield_([b.add(loop.args[0], v)])
            b.ret([b.div(loop.results[0], float(num_rows))])

        with b.func("min_fare", [f64ref], [F64], ["fare"]) as fn:
            col = fn.args[0]
            init = b.f64(1e30)
            with b.for_(0, num_rows, iter_args=[init]) as loop:
                v = b.load(col, loop.iv)
                b.yield_([b.min(loop.args[0], v)])
            b.ret([loop.results[0]])

        with b.func("max_fare", [f64ref], [F64], ["fare"]) as fn:
            col = fn.args[0]
            init = b.f64(-1e30)
            with b.for_(0, num_rows, iter_args=[init]) as loop:
                v = b.load(col, loop.iv)
                b.yield_([b.max(loop.args[0], v)])
            b.ret([loop.results[0]])

        with b.func("filter_long", [f64ref, i64ref], [I64], ["distance", "out"]) as fn:
            dist, out = fn.args
            if num_threads > 1:
                with b.parallel(0, num_rows, num_threads=num_threads) as loop:
                    _filter_body(b, dist, out, loop.iv)
                count = b.i64(0)
                with b.for_(0, num_rows, iter_args=[count]) as red:
                    f = b.load(out, red.iv)
                    b.yield_([b.add(red.args[0], f)])
                b.ret([red.results[0]])
            else:
                zero = b.i64(0)
                with b.for_(0, num_rows, iter_args=[zero]) as loop:
                    flag = _filter_body(b, dist, out, loop.iv)
                    b.yield_([b.add(loop.args[0], b.cast(flag, I64))])
                b.ret([loop.results[0]])

        with b.func(
            "group_by_hour", [i64ref, f64ref, f64ref], [], ["hour", "fare", "hist"]
        ) as fn:
            hour_col, fare_col, hist = fn.args
            with b.for_(0, num_rows) as loop:
                h = b.cast(b.load(hour_col, loop.iv), INDEX)
                f = b.load(fare_col, loop.iv)
                cur = b.load(hist, h)
                b.store(b.add(cur, f), hist, h)

        # group-by over many distinct keys: indirect writes across a
        # histogram larger than small local memories
        with b.func(
            "group_by_location",
            [i64ref, f64ref, f64ref],
            [],
            ["location", "fare", "loc_hist"],
        ) as fn:
            loc_col, fare_col, hist = fn.args
            with b.for_(0, num_rows) as loop:
                h = b.cast(b.load(loc_col, loop.iv), INDEX)
                f = b.load(fare_col, loop.iv)
                cur = b.load(hist, h)
                b.store(b.add(cur, f), hist, h)

        # sort-order materialization: gather through a permutation (the
        # fully random read pattern swap systems cannot prefetch)
        with b.func(
            "gather_sorted", [i64ref, f64ref, f64ref], [F64], ["perm", "fare", "out"]
        ) as fn:
            perm_col, fare_col, out = fn.args
            zero = b.f64(0.0)
            with b.for_(0, num_rows, iter_args=[zero]) as loop:
                p = b.cast(b.load(perm_col, loop.iv), INDEX)
                v = b.load(fare_col, p)
                b.store(v, out, loop.iv)
                b.yield_([b.add(loop.args[0], v)])
            b.ret([loop.results[0]])

        with b.func("main", result_types=[F64, F64, F64, I64, F64, F64]):
            hour_c = b.alloc(I64, num_rows, "hour", obj_attrs=AIFM_CHUNK)
            dist_c = b.alloc(F64, num_rows, "distance", obj_attrs=AIFM_CHUNK)
            fare_c = b.alloc(F64, num_rows, "fare", obj_attrs=AIFM_CHUNK)
            loc_c = b.alloc(I64, num_rows, "location", obj_attrs=AIFM_CHUNK)
            perm_c = b.alloc(I64, num_rows, "perm", obj_attrs=AIFM_CHUNK)
            out_c = b.alloc(I64, num_rows, "filter_out", obj_attrs=AIFM_CHUNK)
            gather_c = b.alloc(F64, num_rows, "gather_out", obj_attrs=AIFM_CHUNK)
            hist = b.alloc(F64, HOURS, "hist")
            loc_hist = b.alloc(F64, num_locations, "loc_hist", obj_attrs=AIFM_CHUNK)
            avg = b.call("avg_fare", [fare_c], [F64]).results[0]
            mn = b.call("min_fare", [fare_c], [F64]).results[0]
            mx = b.call("max_fare", [fare_c], [F64]).results[0]
            cnt = b.call("filter_long", [dist_c, out_c], [I64]).results[0]
            b.call("group_by_hour", [hour_c, fare_c, hist])
            b.call("group_by_location", [loc_c, fare_c, loc_hist])
            gsum = b.call("gather_sorted", [perm_c, fare_c, gather_c], [F64]).results[0]
            probe = b.load(loc_hist, 7)
            b.ret([avg, mn, mx, cnt, gsum, probe])
        verify(b.module)
        return b.module

    base_init = _make_data_init(hour, distance, fare)

    def data_init(name, mrv):
        base_init(name, mrv)
        if name == "location":
            mrv.fill([int(x) for x in location])
        elif name == "perm":
            mrv.fill([int(x) for x in perm])

    probe_expected = float(fare[location == 7].sum())
    expected = (
        float(fare.mean()),
        float(fare.min()),
        float(fare.max()),
        int((distance > LONG_TRIP_KM).sum()),
        float(fare.sum()),
        probe_expected,
    )

    def check(results):
        avg, mn, mx, cnt, gsum, probe = results
        assert abs(avg - expected[0]) < 1e-6 * abs(expected[0]), (avg, expected[0])
        assert abs(mn - expected[1]) < 1e-9, (mn, expected[1])
        assert abs(mx - expected[2]) < 1e-9, (mx, expected[2])
        assert cnt == expected[3], (cnt, expected[3])
        assert abs(gsum - expected[4]) < 1e-6 * abs(expected[4]), (gsum, expected[4])
        assert abs(probe - expected[5]) < 1e-6 * max(1.0, abs(expected[5]))

    return Workload(
        name="dataframe",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="mini DataFrame: reductions, filter, group-by on taxi data",
        params={"num_rows": num_rows, "num_threads": num_threads},
    )


def make_dataframe_amm_workload(num_rows: int = 12288, seed: int = 11) -> Workload:
    """Fig. 23's job: avg, min, max as three adjacent loops over the same
    vector (the original code shape Mira's batching pass fuses)."""
    _, _, fare, _ = taxi_table(num_rows, seed)

    def build_module():
        b = IRBuilder()
        with b.func("main", result_types=[F64, F64, F64]):
            fare_c = b.alloc(
                F64, num_rows, "fare", obj_attrs={"aifm_obj_bytes": 4096}
            )
            zero = b.f64(0.0)
            with b.for_(0, num_rows, iter_args=[zero]) as s_loop:
                v = b.load(fare_c, s_loop.iv)
                b.yield_([b.add(s_loop.args[0], v)])
            lo = b.f64(1e30)
            with b.for_(0, num_rows, iter_args=[lo]) as mn_loop:
                v = b.load(fare_c, mn_loop.iv)
                b.yield_([b.min(mn_loop.args[0], v)])
            hi = b.f64(-1e30)
            with b.for_(0, num_rows, iter_args=[hi]) as mx_loop:
                v = b.load(fare_c, mx_loop.iv)
                b.yield_([b.max(mx_loop.args[0], v)])
            avg = b.div(s_loop.results[0], float(num_rows))
            b.ret([avg, mn_loop.results[0], mx_loop.results[0]])
        verify(b.module)
        return b.module

    def data_init(name, mrv):
        if name == "fare":
            mrv.fill([float(x) for x in fare])

    expected = (float(fare.mean()), float(fare.min()), float(fare.max()))

    def check(results):
        avg, mn, mx = results
        assert abs(avg - expected[0]) < 1e-6 * abs(expected[0])
        assert abs(mn - expected[1]) < 1e-9
        assert abs(mx - expected[2]) < 1e-9

    return Workload(
        name="dataframe_amm",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="avg/min/max as three adjacent loops (batching target)",
        params={"num_rows": num_rows},
    )


def make_filter_workload(
    num_rows: int = 32768, seed: int = 11, num_threads: int = 1, repeats: int = 4
) -> Workload:
    """Fig. 25's job: the DataFrame "filter" operator with multiple
    threads writing a shared result vector (writable shared memory,
    section 4.6)."""
    _, distance, _, _ = taxi_table(num_rows, seed)

    def build_module():
        b = IRBuilder()
        with b.func("main", result_types=[I64]):
            chunk = {"aifm_obj_bytes": 4096}
            dist_c = b.alloc(F64, num_rows, "distance", obj_attrs=chunk)
            out_c = b.alloc(I64, num_rows, "filter_out", obj_attrs=chunk)
            with b.for_(0, repeats):
                if num_threads > 1:
                    with b.parallel(0, num_rows, num_threads=num_threads) as loop:
                        _filter_body(b, dist_c, out_c, loop.iv)
                else:
                    with b.for_(0, num_rows) as loop:
                        _filter_body(b, dist_c, out_c, loop.iv)
            zero = b.i64(0)
            with b.for_(0, num_rows, iter_args=[zero]) as red:
                b.yield_([b.add(red.args[0], b.load(out_c, red.iv))])
            b.ret([red.results[0]])
        verify(b.module)
        return b.module

    def data_init(name, mrv):
        if name == "distance":
            mrv.fill([float(x) for x in distance])

    expected = int((distance > LONG_TRIP_KM).sum())

    def check(results):
        assert results[0] == expected, (results[0], expected)

    return Workload(
        name="dataframe_filter",
        build_module=build_module,
        data_init=data_init,
        check=check,
        description="filter operator writing a shared result vector",
        params={"num_rows": num_rows, "num_threads": num_threads},
    )


def _make_data_init(hour, distance, fare):
    def data_init(name, mrv):
        if name == "hour":
            mrv.fill([int(x) for x in hour])
        elif name == "distance":
            mrv.fill([float(x) for x in distance])
        elif name == "fare":
            mrv.fill([float(x) for x in fare])

    return data_init
