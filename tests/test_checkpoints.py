"""Solved fields kept as checkpoints: every read against the stride-1 march.

A solve keeps every max(1, isqrt(nt))-th layer and the last two, and a
read of any other layer re-marches from the checkpoint before it.  Each
layer, each interpolated value, the whole fields built on first access
and the ``gexp``/``gbsde`` data files must have the bytes of the march
that stores every layer.
"""

import gc
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect import (
    BsdeSolution,
    FieldSolution,
    GeneratorPair,
    VolatilityBand,
    make_grid,
    parse_scalar,
    parse_tri,
    solve_g_heat,
    solve_gbsde,
    solve_gbsde_batch,
    zero_generator,
)
from gexpect.cli import _fmt, run
from gexpect import gheat
from gexpect.gheat import _march, _second_difference, _space_gradient

from conftest import CATALOG_TEXTS, generator, grid_with_steps

DRIVERS = (("0", "0"), ("-y", "0"), ("0.5*z", "0.1*y"), ("sin(y) - t", "0.3*t*y"))

# nt = 1 and 2 (stride 1), perfect squares (the last layer is a checkpoint),
# multiples of the stride, and one past a checkpoint (the last layer alone in the ring)
EDGE_STEPS = (1, 2, 3, 4, 5, 9, 10, 16, 17, 20, 21, 25, 26, 30, 49, 50)


def stride_one(band, grid, datum, gen, times, picard):
    """Every layer of the march that stores them all, as a stride-1 FieldSolution."""
    u = np.empty((grid.nt + 1, grid.nx))
    drivers = () if gen == zero_generator() else (gen.g, gen.f, times, picard)
    _march(band, grid.dx, grid.dt, grid.nt, datum, *drivers, out=u)
    return FieldSolution(grid, u, times.copy())


def probe_times(field):
    """Every layer's time, the midpoints between layers, and the two ends."""
    times = field.times
    return list(times) + list(0.5 * (times[1:] + times[:-1])) + [times[0], times[-1]]


class TestCheckpointReads:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        nx=st.integers(1, 20).map(lambda n: 2 * n + 1),
        nt=st.one_of(st.sampled_from(EDGE_STEPS), st.integers(1, 70)),
        theta=st.floats(0.2, 0.5),
        drivers=st.sampled_from(DRIVERS),
        picard=st.booleans(),
        text=st.sampled_from(CATALOG_TEXTS),
        t0=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_every_read_has_the_stride_one_bytes(self, lo, ratio, nx, nt, theta, drivers, picard, text, t0, data):
        band = VolatilityBand(lo, lo * ratio)
        grid = grid_with_steps(band, nx, nt, theta)
        gen, phi = generator(*drivers), parse_scalar(text)
        # coarse grids can take dt * L > 1, where the driver step grows; growth is not at issue here
        sol = solve_gbsde(band, gen, phi, grid, t0=t0, picard=picard, envelope_factor=1e300)
        reference = stride_one(band, grid, phi(grid.xs), gen, sol.field.times, picard)
        # layers in a drawn order, so segments are re-marched, re-used and left in every order
        for k in data.draw(st.permutations(range(nt + 1))):
            layer = sol.field.layer(k)
            assert layer.tobytes() == reference.u[k].tobytes(), f"layer {k}"
            assert not layer.flags.writeable
            assert sol.field.z_layer(k).tobytes() == reference.z_layer(k).tobytes(), f"z layer {k}"
        for s in probe_times(reference):
            for x in (0.0, -0.3, 1.0):
                assert np.float64(sol.y_at(s, x)).tobytes() == np.float64(reference.value_at(s, x)).tobytes()
        assert sol.field.u.tobytes() == reference.u.tobytes()
        assert sol.eta.tobytes() == BsdeSolution(reference, gen, band).eta.tobytes()
        if drivers == ("0", "0"):  # the forward heat field is the zero-driver backward field
            heat = solve_g_heat(band, phi, grid)
            for k in range(nt + 1):
                assert heat.layer(k).tobytes() == reference.u[k].tobytes()
            assert heat.u.tobytes() == reference.u.tobytes()

    # nt 30 (stride 5, no tail), 47 (stride 6: 7 segments and a tail of 5), 26 (stride 5, a tail of 1)
    @pytest.mark.parametrize("nt", [30, 47, 26])
    @pytest.mark.parametrize("drivers", DRIVERS)
    @pytest.mark.parametrize("picard", [False, True])
    @pytest.mark.parametrize("segments", [1, 2, 3, None])  # segments per slab; None: the module's slab
    def test_u_marched_by_slabs_of_segments_has_the_stride_one_bytes(self, band, monkeypatch, nt, drivers, picard, segments):
        # each segment marches from its checkpoint on its own clock, as a row of a stack; the
        # tail after the last checkpoint marches alone
        grid = grid_with_steps(band, 21, nt, 0.45)
        stride = max(1, math.isqrt(nt))
        if segments is not None:
            monkeypatch.setattr(gheat, "_SLAB", segments * (stride + 1 + gheat._WORK_ROWS) * grid.nx)
        gen, phi = generator(*drivers), parse_scalar("sin(3*x) + 0.1*x^2")
        sols = [solve_gbsde(band, gen, phi, grid, t0=0.4, picard=picard)]
        sols += solve_gbsde_batch(band, gen, [parse_scalar("tanh(x)"), phi], grid, t0=0.4, picard=picard)
        for sol in (sols[0], sols[2]):  # a solve of one and the second row of a batch: non-contiguous checkpoints
            reference = stride_one(band, grid, phi(grid.xs), gen, sol.field.times, picard)
            assert sol.field.u.tobytes() == reference.u.tobytes()
            assert sol.eta.tobytes() == BsdeSolution(reference, gen, band).eta.tobytes()

    def test_a_layer_outside_the_field_raises(self, band):
        field = solve_g_heat(band, parse_scalar("x^2"), grid_with_steps(band, 11, 20, 0.4))
        for k in (-1, 21):
            with pytest.raises(IndexError, match=f"layer {k} outside"):
                field.layer(k)

    def test_a_whole_field_is_stride_one(self, band):
        grid = grid_with_steps(band, 11, 20, 0.4)
        u = solve_g_heat(band, parse_scalar("sin(x)"), grid).u
        field = FieldSolution(grid, u.copy(), np.linspace(0.0, grid.horizon, grid.nt + 1))
        for k in range(grid.nt + 1):
            assert field.layer(k).tobytes() == u[k].tobytes()
        assert field.u.tobytes() == u.tobytes()


class TestMemory:
    @pytest.mark.parametrize("drivers", DRIVERS)
    @pytest.mark.parametrize("envelope", [None, 1e6])
    def test_a_march_frees_its_buffers_when_it_returns(self, band, drivers, envelope):
        # a reference cycle would keep every buffer of a march alive until the cyclic collector
        # ran: the marches of one heat-oracle pass peaked at twice their memory that way
        grid = grid_with_steps(band, 21, 30, 0.4)
        gen = generator(*drivers)
        datum = np.stack([np.sin(grid.xs), np.cos(grid.xs)])
        times = np.linspace(1.0, 0.0, grid.nt + 1)
        gc.collect()
        gc.disable()
        try:
            _march(band, grid.dx, grid.dt, grid.nt, datum, gen.g, gen.f, times, envelope=envelope)
            _march(band, grid.dx, grid.dt, grid.nt, datum[0], out=np.empty((grid.nt + 1, grid.nx)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_an_nx801_heat_solve_and_two_reads_stay_small(self, band):
        # the stored field was (nt + 1) x 801 doubles, 63 MB; checkpoints and one segment are about 1.3 MB
        grid = make_grid(band, 1.0, nx=801)
        phi = parse_scalar("x^4")
        tracemalloc.start()
        try:
            field = solve_g_heat(band, phi, grid)
            field.value_at(1.0)
            field.value_at(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("drivers", [("0", "0"), ("0.5*z", "0.1*y")])
    def test_building_u_at_nx401_holds_the_field_and_one_slab(self, band, drivers):
        # the segments march a slab at a time: no second field-sized array is allocated
        grid = make_grid(band, 1.0, nx=401)
        sol = solve_gbsde(band, generator(*drivers), parse_scalar("tanh(x)"), grid)
        field_bytes = (grid.nt + 1) * grid.nx * 8
        stride = max(1, math.isqrt(grid.nt))
        assert grid.nt // stride > gheat._SLAB // ((stride + 1 + gheat._WORK_ROWS) * grid.nx)  # more than one slab
        tracemalloc.start()
        try:
            assert sol.field.u.nbytes == field_bytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= field_bytes + 8 * gheat._SLAB, f"peak {peak / 1e6:.2f} MB, field {field_bytes / 1e6:.2f} MB"

    def test_gbsde_rows_at_nx401_stay_small(self, band):
        # the whole u, z, curvature and eta were 7.9 MB each (nt = 2470) and the run peaked
        # at 40.5 MB; rows from layer(k) hold checkpoints, one segment and the rows
        config = {
            "schema_version": 1,
            "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0},
            "grid": {"horizon": 1.0, "nx": 401},
            "generator": {"g": "0.5*z", "f": "0.1*y", "lipschitz_L": 1.0},
            "functions": {"terminal": "tanh(x)"},
            "params": {"times": [0.5, 1.0]},
        }
        field_bytes = (make_grid(band, 1.0, nx=401).nt + 1) * 401 * 8
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gbsde.json"
            path.write_text(json.dumps(config))
            tracemalloc.start()
            try:
                assert run("gbsde", path, Path(tmp)) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < field_bytes / 4, f"peak {peak / 1e6:.1f} MB against {field_bytes / 1e6:.1f} MB per field"

    def test_reading_eta_leaves_two_whole_fields(self, band):
        # u, z, curvature and eta stayed resident after a read of eta: four fields, 31.7 MB
        grid = make_grid(band, 1.0, nx=401)
        field_bytes = (grid.nt + 1) * grid.nx * 8
        gen = GeneratorPair(parse_tri("0.5*z"), parse_tri("0.1*y"), 1.0)
        tracemalloc.start()
        try:
            sol = solve_gbsde(band, gen, parse_scalar("tanh(x)"), grid)
            assert sol.eta.shape == (grid.nt + 1, grid.nx)
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert resident < 2.5 * field_bytes, f"{resident / field_bytes:.2f} fields resident"


class TestDerivedFieldsAreReadOnly:
    def test_assignment_raises(self, band):
        grid = grid_with_steps(band, 11, 20, 0.4)
        sol = solve_gbsde(band, GeneratorPair(parse_tri("-y"), parse_tri("0.1*y"), 1.0), parse_scalar("x^2"), grid)
        for owner, name in ((sol.field, "u"), (sol, "eta")):
            before = getattr(owner, name)
            with pytest.raises(AttributeError):
                setattr(owner, name, np.zeros(3))
            assert getattr(owner, name) is before
            assert not before.flags.writeable

    def test_derived_fields_have_the_reference_bytes(self, band):
        grid = grid_with_steps(band, 15, 30, 0.45)
        field = solve_g_heat(band, parse_scalar("tanh(x)"), grid)
        sol, u = BsdeSolution(field, zero_generator(), band), field.u
        z, half_d2 = _space_gradient(u, grid.dx), 0.0 + 0.5 * _second_difference(u, grid.dx * grid.dx)
        for k in range(grid.nt + 1):
            assert field.z_layer(k).tobytes() == z[k].tobytes(), f"z layer {k}"
            assert sol.eta_layer(k).tobytes() == half_d2[k].tobytes(), f"eta layer {k}"
            triple = sol.yz_eta_layer(k)
            assert [a.tobytes() for a in triple] == [u[k].tobytes(), z[k].tobytes(), half_d2[k].tobytes()], k
        assert sol.eta.tobytes() == half_d2.tobytes()


def csv_text(header, rows):
    return "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"


class TestCliRows:
    @pytest.mark.parametrize("nt", [1, 2, 16, 17, 20, 41])
    def test_gexp_and_gbsde_rows_have_the_stride_one_bytes(self, band, nt):
        grid = grid_with_steps(band, 21, nt, 0.4)
        times = [0.0, grid.horizon / 3.0, 0.5 * grid.horizon, grid.horizon]
        section = {"horizon": grid.horizon, "nx": grid.nx, "x_min": -1.0, "x_max": 1.0, "nt": nt}
        common = {"schema_version": 1, "band": {"sigma_min_sq": 1.0, "sigma_max_sq": 2.0}, "grid": section}
        configs = {
            "gexp": {**common, "functions": {"phi": "sin(3*x)"}, "params": {"times": times}},
            "gbsde": {
                **common,
                "generator": {"g": "0.5*z", "f": "0.1*y", "lipschitz_L": 1.0},
                "functions": {"terminal": "sin(3*x)"},
                "params": {"times": times},
            },
        }
        phi = parse_scalar("sin(3*x)")
        heat = stride_one(band, grid, phi(grid.xs), zero_generator(), np.linspace(0.0, grid.horizon, nt + 1), False)
        gen = GeneratorPair(parse_tri("0.5*z"), parse_tri("0.1*y"), 1.0)
        backward = stride_one(band, grid, phi(grid.xs), gen, grid.horizon - heat.times, False)
        bsde = BsdeSolution(backward, gen, band)
        expected = {"gexp": [], "gbsde": []}
        for t in times:
            k = heat.nearest_layer(t)
            expected["gexp"] += [(heat.times[k], x, u) for x, u in zip(grid.xs, heat.u[k])]
            k = backward.nearest_layer(t)
            expected["gbsde"] += [
                (backward.times[k], x, y, z, eta)
                for x, y, z, eta in zip(grid.xs, backward.u[k], backward.z_layer(k), bsde.eta[k])
            ]
        headers = {"gexp": ("t", "x", "u"), "gbsde": ("t", "x", "y", "z", "eta")}
        with tempfile.TemporaryDirectory() as tmp:
            for command, config in configs.items():
                path = Path(tmp) / f"{command}.json"
                path.write_text(json.dumps(config))
                assert run(command, path, Path(tmp)) == 0
                written = (Path(tmp) / f"{command}.data.csv").read_text()
                assert written == csv_text(headers[command], expected[command]), command
