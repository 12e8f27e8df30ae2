"""Stacks of equal-shape solves: one march, each row with the bits of its own.

Rows of a stack share nx and nt but carry their own dx, dt, clock and
envelope.  Each row must keep every byte of the march it gets alone, and a
failing stack must name the first failing (layer, row): the
representation-limit check's eps list and the checkpoint rebuild of a
whole field both march that way.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gexpect import (
    BlowUpError,
    GeneratorPair,
    NonFiniteError,
    SpaceTimeGrid,
    VolatilityBand,
    make_grid,
    parse_scalar,
    parse_tri,
    representation_limit_check,
    representation_quotient,
    solve_gbsde,
)
from gexpect.gbsde import _solve_on_grids
from gexpect.gheat import _march

from conftest import CATALOG_TEXTS, generator

# the heat step, drivers that read t, one that reads z, and drivers that grow or overflow
STACK_DRIVERS = (
    ("0", "0"),
    ("sin(y) - t", "0.3*t*y"),
    ("t", "0"),
    ("0.5*z", "0.1*y"),
    ("3*y + t", "0"),
    ("y*y", "0"),
)


def failure(march):
    """(class, layer) of what ``march()`` raises, or None when it returns."""
    try:
        march()
    except (NonFiniteError, BlowUpError) as exc:
        return type(exc), exc.layer
    return None


class TestStackedMarch:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(0.1, 2.0),
        ratio=st.floats(1.0, 4.0),
        nx=st.integers(1, 12).map(lambda n: 2 * n + 1),
        nt=st.integers(1, 40),
        rows=st.lists(
            st.tuples(
                st.floats(0.2, 3.0),  # half width: the row's dx
                st.floats(0.2, 0.5),  # CFL fraction: with dx, the row's dt and horizon
                st.floats(0.0, 1.0),  # t0: the row's clock
                st.sampled_from(CATALOG_TEXTS),
                st.sampled_from((1.0, 1e100, 1e200)),  # the datum's scale
                st.sampled_from((1.05, 2.0, None)),  # envelope factor, None for the largest float
            ),
            min_size=1,
            max_size=5,
        ),
        drivers=st.sampled_from(STACK_DRIVERS),
        picard=st.booleans(),
        enveloped=st.booleans(),
    )
    def test_each_row_has_the_bytes_and_failure_of_its_own_march(
        self, lo, ratio, nx, nt, rows, drivers, picard, enveloped
    ):
        band = VolatilityBand(lo, lo * ratio)
        gen = generator(*drivers)
        grids, data, clocks, envelopes = [], [], [], []
        for half_width, theta, t0, text, scale, factor in rows:
            dx = 2.0 * half_width / (nx - 1)
            grid = SpaceTimeGrid(nt * theta * dx * dx / band.sigma_max_sq, -half_width, half_width, nx, nt)
            datum = scale * parse_scalar(text)(grid.xs)
            grids.append(grid)
            data.append(datum)
            clocks.append(t0 + grid.horizon - grid.times)
            top = np.finfo(float).max if factor is None else factor * (float(np.max(np.abs(datum))) + 1.0)
            envelopes.append(min(top, np.finfo(float).max))
        data = np.stack(data)
        drives = (gen.g, gen.f) if drivers != ("0", "0") else (None, None)

        def alone(b, out):
            envelope = envelopes[b] if enveloped else None
            grid = grids[b]
            return lambda: _march(band, grid.dx, grid.dt, nt, data[b], *drives, clocks[b], picard, out=out, envelope=envelope)

        def stacked(out):
            dx, dt = (np.array([[getattr(grid, name)] for grid in grids]) for name in ("dx", "dt"))
            envelope = np.array(envelopes) if enveloped else None
            clock = np.stack(clocks).T[..., None]  # (nt + 1, rows, 1)
            return lambda: _march(band, dx, dt, nt, data, *drives, clock, picard, out=out, envelope=envelope)

        own = [np.full((nt + 1, nx), np.nan) for _ in rows]
        failures = [failure(alone(b, own[b])) for b in range(len(rows))]
        stack = np.full((nt + 1, len(rows), nx), np.nan)
        try:
            stacked(stack)()
        except (NonFiniteError, BlowUpError) as exc:
            first = min(layer for _, layer in filter(None, failures))
            at_first = [(b, kind) for b, f in enumerate(failures) if f is not None for kind, layer in [f] if layer == first]
            assert exc.layer == first
            assert failures[exc.row] == (type(exc), first)
            if type(exc) is BlowUpError:  # no row is non-finite in that layer, and the first beyond its envelope is named
                assert all(kind is BlowUpError for _, kind in at_first)
                assert exc.row == at_first[0][0]
            elif not picard:  # the first non-finite row wins; with Picard a non-finite predictor is tested first
                assert exc.row == next(b for b, kind in at_first if kind is NonFiniteError)
            # every layer before the failing one has each row's own bytes
            for b in range(len(rows)):
                assert stack[:first, b].tobytes() == own[b][:first].tobytes(), f"row {b}"
        else:
            assert failures == [None] * len(rows)
            for b in range(len(rows)):
                assert stack[:, b].tobytes() == own[b].tobytes(), f"row {b}"


class TestStackedSolves:
    def test_rows_of_mixed_shapes_march_by_group_and_keep_their_own_bits(self):
        # two (nx, nt) groups interleaved, one row on a grid of its own: every row is its own solve
        band = VolatilityBand(0.9, 1.9)
        gen = GeneratorPair(parse_tri("sin(y) - t"), parse_tri("0.3*t*y"), 1.0)
        grids = [
            make_grid(band, 0.4, nx=41),
            make_grid(band, 0.4, nx=31),
            make_grid(band, 0.2, nx=41, half_width=2.0),
            make_grid(band, 0.4, nx=41),
            make_grid(band, 0.1, nx=31),
        ]
        assert len({(grid.nx, grid.nt) for grid in grids}) == 3
        terminals = [parse_scalar(text) for text in ("x^2 + 1", "tanh(x)", "sin(x)", "-(x^2)", "x")]
        for picard in (False, True):
            sols = _solve_on_grids(band, gen, terminals, grids, 0.3, picard=picard)
            for sol, terminal, grid in zip(sols, terminals, grids):
                single = solve_gbsde(band, gen, terminal, grid, t0=0.3, picard=picard)
                assert sol.grid == grid
                assert sol.field.times.tobytes() == single.field.times.tobytes()
                assert sol.field.u.tobytes() == single.field.u.tobytes()
                assert sol.eta.tobytes() == single.eta.tobytes()

    def test_a_failure_in_a_later_group_names_its_row_in_the_whole_list(self):
        band = VolatilityBand(1.0, 2.0)
        gen = SimpleNamespace(g=parse_tri("3*y"), f=parse_tri("0"))  # grows past a tight envelope
        grids = [make_grid(band, 0.1, nx=41), make_grid(band, 1.0, nx=21), make_grid(band, 1.0, nx=21)]
        terminals = [parse_scalar("1")] * 3
        expected = failure(lambda: solve_gbsde(band, gen, terminals[1], grids[1], envelope_factor=1.2))
        assert expected is not None and expected[0] is BlowUpError
        with pytest.raises(BlowUpError) as err:
            _solve_on_grids(band, gen, terminals, grids, 0.0, envelope_factor=1.2)
        assert (err.value.layer, err.value.row) == (expected[1], 1)


REPLIMIT_CASES = (
    # band, drivers, terminal, t, eps list, nx
    ((0.9, 1.9), ("-y", "0.2*y"), "x^2 + 1", 0.0, (0.2, 0.1, 0.05, 0.025), 201),
    ((1.0, 2.0), ("sin(y) - t", "0.3*t*y"), "x^2 + 1", 0.3, (0.1, 0.05, 0.025), 101),
    ((0.3, 1.7), ("0.5*z", "0.1*y"), "tanh(x) + 0.5*x^2", 0.7, (0.5, 0.2, 0.1, 0.05, 0.02), 61),
    ((0.5, 0.5), ("0", "0"), "exp(tanh(x))", 0.0, (1.0, 0.3, 0.1), 41),
)


class TestStackedRepresentationLimit:
    @pytest.mark.parametrize("band,drivers,text,t,eps_list,nx", REPLIMIT_CASES)
    def test_each_row_is_the_quotient_of_its_own_solve(self, band, drivers, text, t, eps_list, nx):
        band = VolatilityBand(*band)
        gen, terminal = GeneratorPair(parse_tri(drivers[0]), parse_tri(drivers[1]), 1.0), parse_scalar(text)
        result = representation_limit_check(band, gen, terminal, t, eps_list, nx=nx)
        assert [row[0] for row in result["rows"]] == list(eps_list)
        for eps, quotient, error in result["rows"]:
            alone = representation_quotient(band, gen, terminal, t, eps, make_grid(band, eps, nx=nx))
            assert np.float64(quotient).tobytes() == np.float64(alone).tobytes(), eps
            assert error == abs(alone - result["formula"])

    def test_two_failing_eps_name_the_first_failing_layer_and_row(self):
        # y' = y^2 from 3 + tanh(x)^2 blows up after a time between 1/4 and 1/3: eps 1 and 0.5
        # fail, eps 1 in fewer layers (every eps takes the same nt), and eps 0.2 and 0.1 do not
        band = VolatilityBand(1.0, 2.0)
        gen, terminal = SimpleNamespace(g=parse_tri("y*y"), f=parse_tri("0")), parse_scalar("3 + tanh(x)^2")
        eps_list = (1.0, 0.5, 0.2, 0.1)
        alone = [
            failure(lambda eps=eps: representation_quotient(band, gen, terminal, 0.0, eps, make_grid(band, eps, nx=21)))
            for eps in eps_list
        ]
        failing = [(f[1], row, f[0]) for row, f in enumerate(alone) if f is not None]
        assert [row for _, row, _ in failing] == [0, 1]
        layer, row, kind = min(failing)
        assert failing[1][0] > layer
        with pytest.raises(kind) as err:
            representation_limit_check(band, gen, terminal, 0.0, eps_list, nx=21)
        assert (err.value.layer, err.value.row) == (layer, row)
