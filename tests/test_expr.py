import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gexpect import EvalDomainError, ParseError, expr, parse, parse_scalar, parse_tri
from gexpect.expr import BinOp, Call, Lit, Neg, Pow, ScalarFunction, TriFunction, Var

from conftest import CATALOG_TEXTS, fd_derivatives


class TestParse:
    def test_square(self):
        fn = parse_scalar("x^2")
        assert fn(3.0) == 9.0

    def test_exp(self):
        assert parse_scalar("exp(x)")(0.0) == 1.0

    def test_precedence(self):
        assert parse_scalar("1 + 2*x^2")(2.0) == 9.0
        assert parse_scalar("-x^2")(2.0) == -4.0  # unary minus binds below ^
        assert parse_scalar("6 - 2 - 1")(0.0) == 3.0  # left-assoc

    def test_scientific_literals(self):
        assert parse_scalar("2.5e-1 * x")(4.0) == 1.0

    def test_parse_classifies(self):
        assert isinstance(parse("x^2"), ScalarFunction)
        assert isinstance(parse("y + z*t"), TriFunction)
        assert isinstance(parse("3.0"), ScalarFunction)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("2*")
        assert err.value.offset == 2

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "2*", "x +", "(x", "x)", "x^0.5", "x^x", "foo(x)", "exp(x, 1)", "exp()", "1..2"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_scalar("x + y")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_tri("y + q")

    def test_parse_refuses_mixed_variables(self):
        with pytest.raises(ParseError, match=r"mixes incompatible variables \['x', 'y'\]"):
            parse("x + y")

    def test_unexpected_character_named_at_its_offset(self):
        with pytest.raises(ParseError, match="unexpected character '\\$'") as err:
            parse_scalar("x $ 2")
        assert err.value.offset == 2

    @pytest.mark.parametrize("text,literal,offset", [("1e999*x", "1e999", 0), ("x + 2E308", "2E308", 4)])
    def test_a_literal_that_is_not_finite_is_refused(self, text, literal, offset):
        # it would print as inf, which parses as an unknown identifier
        with pytest.raises(ParseError, match=f"number literal '{literal}' is not finite") as err:
            parse_scalar(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["x^1e300", "x^(-1e300)", "x^9007199254740994", "x^1e16"])
    def test_an_exponent_beyond_2_to_the_53_is_refused(self, text):
        # beyond 2^53 every float is an integer; x^1e300 raised OverflowError in its jet
        with pytest.raises(ParseError, match="power exponent must be an integer literal") as err:
            parse_scalar(text)
        assert err.value.offset == 1

    def test_an_exponent_of_2_to_the_53_is_kept(self):
        fn = parse_scalar("x^9007199254740992")
        assert fn.ast.exponent == 2**53
        assert fn.eval2(0.5) == (0.0, 0.0, 0.0)

    def test_negative_integer_power(self):
        fn = parse_scalar("x^(-2)")
        assert fn(2.0) == 0.25
        with pytest.raises(EvalDomainError):
            fn(0.0)


class TestRoundTrip:
    CASES = [
        "x^2 - 3*x + 1/(x + 4)",
        "-x^2",
        "-(x^2)",
        "exp(tanh(x)) * (1 - bump(x))",
        "x^(-2)",
        "2e-3*x",
        "((x))",
        "1 - 2 - 3",
        "2/(3/x)",
        "(x^2)^3",
        "abs_smooth(x - 1)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_idempotent(self, text):
        first = parse_scalar(text)
        second = parse_scalar(first.to_string())
        assert first.ast == second.ast
        assert second.to_string() == first.to_string()

    @given(st.recursive(
        st.one_of(
            st.just("x"),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: format(v, ".6g")),
        ),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
            st.tuples(st.sampled_from(["exp", "tanh", "sin", "cos"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
            sub.map(lambda s: f"-({s})"),
            st.tuples(sub, st.integers(min_value=0, max_value=4)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=12,
    ))
    def test_random_expressions_round_trip(self, text):
        fn = parse_scalar(text)
        again = parse_scalar(fn.to_string())
        assert fn.ast == again.ast

    @given(st.recursive(
        st.just(Var("x")) | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Lit),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(Pow, sub, st.integers(min_value=-6, max_value=6)),
            st.builds(Call, st.sampled_from(sorted(expr._BUILTINS)), sub),
        ),
        max_leaves=12,
    ))
    @example(BinOp("-", BinOp("-", Var("x"), Lit(1.0)), BinOp("*", Lit(2.0), BinOp("/", Var("x"), Lit(3.0)))))
    @example(BinOp("/", Neg(Pow(Var("x"), 2)), BinOp("+", Var("x"), Neg(Lit(1.0)))))
    def test_printed_trees_parse_back(self, tree):
        # the printer leaves out every parenthesis the operator table makes redundant
        assert parse_scalar(expr._to_string(tree)).ast == tree


    @settings(max_examples=200, deadline=None)
    @given(
        text=st.sampled_from(CATALOG_TEXTS),
        number=st.sampled_from([-2.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 0.5, 3.0])
        | st.floats(allow_nan=False, allow_infinity=False),
        how=st.sampled_from(["scale", "shift"]),
    )
    @example(text="x", number=-2.0, how="scale")
    @example(text="x^2", number=-0.0, how="scale")
    @example(text="sin(x)", number=-0.0, how="shift")
    def test_scaled_and_shifted_functions_round_trip(self, text, number, how):
        # scale and shift build a negative number as the parser does, Neg(Lit(|v|)), -0.0 included
        fn = getattr(parse_scalar(text), how)(number)
        again = parse_scalar(fn.to_string())
        assert again == fn
        xs = np.linspace(-3.0, 3.0, 13)
        assert again(xs).tobytes() == fn(xs).tobytes()

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
    def test_scale_and_shift_refuse_a_number_that_is_not_finite(self, number):
        # it would print as an identifier the parser refuses
        fn = parse_scalar("x")
        with pytest.raises(ValueError, match=f"factor must be finite, got {number}"):
            fn.scale(number)
        with pytest.raises(ValueError, match=f"offset must be finite, got {number}"):
            fn.shift(number)

    def test_a_tri_function_round_trips(self):
        fn = parse_tri("0.5*z/(1 + y^2) - t*y + -(z^2)")
        again = parse_tri(fn.to_string())
        assert again == fn and again.to_string() == fn.to_string()


class TestEval2:
    def test_zero_power_has_the_constant_jet(self):
        assert parse_scalar("x^0").eval2(2.0) == (1.0, 0.0, 0.0)

    def test_polynomial_jet(self):
        assert parse_scalar("x^2").eval2(3.0) == (9.0, 6.0, 2.0)

    def test_exp_jet(self):
        assert parse_scalar("exp(x)").eval2(0.0) == (1.0, 1.0, 1.0)

    def test_tanh_matches_finite_differences(self):
        fn = parse_scalar("tanh(x)")
        _, d1, d2 = fn.eval2(0.5)
        fd1, fd2 = fd_derivatives(fn, 0.5)
        assert abs(d1 - fd1) <= 1e-6
        assert abs(d2 - fd2) <= 1e-6

    def test_sqrt_domain(self):
        fn = parse_scalar("sqrt(x)")
        with pytest.raises(EvalDomainError):
            fn.eval2(-1.0)

    # window keeps clear of the isolated non-smooth spots (abs kink, bump seams)
    FD_CASES = [
        ("x", (-3, 3)),
        ("x^2", (-3, 3)),
        ("-(x^2)", (-3, 3)),
        ("x^3", (-3, 3)),
        ("x^4", (-3, 3)),
        ("tanh(x)", (-3, 3)),
        ("exp(tanh(x))", (-3, 3)),
        ("sin(x)", (-3, 3)),
        ("cos(x)", (-3, 3)),
        ("exp(x)", (-2, 2)),
        ("sqrt(1 + x^2)", (-3, 3)),
        ("abs_smooth(x)", (0.1, 3)),
        ("(1 + x^2)/(2 + sin(x))", (-3, 3)),
        ("x^(-2)", (0.5, 3)),
        ("bump(x)", (-0.95, 0.95)),
        ("bump(x)", (1.1, 1.9)),
    ]

    @pytest.mark.parametrize("text,window", FD_CASES)
    def test_jets_match_finite_differences(self, text, window):
        fn = parse_scalar(text)
        rng = np.random.default_rng(hash(text + str(window)) % 2**32)
        for x in rng.uniform(window[0], window[1], 100):
            _, d1, d2 = fn.eval2(float(x))
            fd1, fd2 = fd_derivatives(fn, float(x))
            assert abs(d1 - fd1) <= 1e-6 * (1.0 + abs(d1))
            assert abs(d2 - fd2) <= 1e-4 * (1.0 + abs(d2))


class TestBuiltins:
    def test_abs_smooth_near_abs(self):
        fn = parse_scalar("abs_smooth(x)")
        assert fn(3.0) == pytest.approx(3.0, abs=1e-8)
        assert fn(-3.0) == pytest.approx(3.0, abs=1e-8)
        v, d1, d2 = fn.eval2(2.0)
        assert d1 == pytest.approx(1.0, abs=1e-9)
        assert d2 == pytest.approx(0.0, abs=1e-9)

    def test_bump_plateau_and_support(self):
        fn = parse_scalar("bump(x)")
        assert fn(0.0) == 1.0
        assert fn(0.99) == 1.0
        assert fn(2.0) == 0.0
        assert fn(5.0) == 0.0
        assert 0.0 < fn(1.5) < 1.0
        assert fn.eval2(0.0) == (1.0, 0.0, 0.0)

    def test_bump_is_c2_at_seams(self):
        fn = parse_scalar("bump(x)")
        for seam in (1.0, -1.0, 2.0, -2.0):
            below = fn.eval2(seam - 1e-9)
            above = fn.eval2(seam + 1e-9)
            for lo, hi in zip(below, above):
                assert abs(hi - lo) < 1e-6

    # literals follow the array contract: the constant cases raised ZeroDivisionError and OverflowError
    @pytest.mark.parametrize(
        "text,x",
        [("x^2", 1e200), ("exp(x)", 1000.0), ("x^2 + 1/0", 0.3), ("0^(-1)*x", 0.3), ("(1e200)^2 - x", 0.3)],
    )
    def test_overflow_is_a_domain_error(self, text, x):
        fn = parse_scalar(text)
        with pytest.raises(EvalDomainError, match="inf at x = "):
            fn(x)
        with pytest.raises(EvalDomainError, match="inf at x = "):
            fn.eval2(x)
        with pytest.raises(EvalDomainError):
            fn.eval2(np.array([0.0, x]))

    def test_vectorized_matches_scalar(self):
        fn = parse_scalar("exp(tanh(x)) * bump(x) - abs_smooth(x)")
        xs = np.linspace(-3, 3, 41)
        vec = fn(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == pytest.approx(fn(float(x)), rel=1e-15, abs=1e-15)


class TestCombinators:
    def test_compose(self):
        h = parse_scalar("exp(x)")
        phi = parse_scalar("tanh(x)")
        both = h.compose(phi)
        assert both(0.7) == pytest.approx(math.exp(math.tanh(0.7)))

    def test_compose_through_a_binary_operator(self):
        # every x of h, on both sides of the +, is replaced by phi
        both = parse_scalar("x^2 + 3*x").compose(parse_scalar("tanh(x)"))
        t = math.tanh(0.7)
        assert both(0.7) == pytest.approx(t * t + 3.0 * t)
        assert both(np.array([0.0]))[0] == 0.0

    def test_add_scale_shift(self):
        f = parse_scalar("x^2")
        g = parse_scalar("sin(x)")
        assert (f + g)(2.0) == pytest.approx(4.0 + math.sin(2.0))
        assert f.scale(3.0)(2.0) == 12.0
        assert f.shift(-1.0)(2.0) == 3.0


class TestTriFunction:
    def test_eval(self):
        fn = parse_tri("t + 2*y - z")
        assert fn(1.0, 2.0, 3.0) == 2.0

    def test_vectorized_broadcast(self):
        fn = parse_tri("y + z")
        out = fn(0.0, np.arange(3.0), 1.0)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_difference_quotient_linear(self):
        fn = parse_tri("0.25*y + 0.5*z")
        assert fn.max_difference_quotient() <= 0.5 + 1e-9

    def test_difference_quotient_constant(self):
        assert parse_tri("3").max_difference_quotient() == 0.0

    def test_the_quotients_draw_is_the_one_its_docstring_states(self, monkeypatch):
        draws = []

        def spy(*args):
            draws.append(uniforms(*args))
            return draws[-1]

        uniforms = expr._uniforms
        monkeypatch.setattr(expr, "_uniforms", spy)
        parse_tri("y").max_difference_quotient()
        ((t, y1, z1, y2, z2),) = draws
        assert t.shape == (1000,) and np.all((0.0 <= t) & (t < 1.0))
        for v in (y1, z1, y2, z2):
            assert np.all((-10.0 <= v) & (v < 10.0))
        assert round(float(np.min(np.abs(y1 - y2) + np.abs(z1 - z2))), 2) == 0.53

    @pytest.mark.parametrize(
        "text,point",
        [
            ("1/y", (0.0, 0.0, 0.0)),
            ("y^2", (0.0, 1e200, 0.0)),
            ("exp(y)", (0.0, 1000.0, 0.0)),
            ("y + 1/0", (0.0, 0.3, 0.0)),
            ("y + (1e200)^2", (0.0, 0.3, 0.0)),
        ],
    )
    def test_non_finite_point_is_a_domain_error(self, text, point):
        # the parent raised ZeroDivisionError, OverflowError and returned inf
        with pytest.raises(EvalDomainError, match=r"inf at \(t, y, z\) = "):
            parse_tri(text)(*point)

    @pytest.mark.parametrize("name", ["t", "y", "z"])
    def test_an_array_call_returns_a_new_array(self, name):
        # a bare variable compiles to its argument, so the call must copy it, not hand back the caller's array
        args = {"t": 0.0, "y": 0.0, "z": 0.0, name: np.arange(3.0)}
        out = parse_tri(name)(*args.values())
        assert not np.shares_memory(out, args[name])
        out[0] = 7.0
        assert args[name].tolist() == [0.0, 1.0, 2.0]

    def test_an_array_call_has_the_shape_of_the_variables_read(self):
        ts, ys = np.zeros(4), np.arange(3.0)
        assert parse_tri("y + 1")(ts, ys, 0.0).shape == (3,)
        assert parse_tri("t*y")(ts[:, None], ys, 0.0).shape == (4, 3)
        assert np.ndim(parse_tri("3")(ts, ys, 0.0)) == 0

    def test_arrays_keep_non_finite_entries(self):
        out = parse_tri("1/y")(0.0, np.array([0.0, 2.0]), 0.0)
        assert out.tolist() == [np.inf, 0.5]

    @pytest.mark.parametrize(
        "text,names",
        [("-y", {"y"}), ("0", set()), ("t + 2*y - z", {"t", "y", "z"}), ("-abs_smooth(z)", {"z"}), ("sin(y)^2 - t", {"t", "y"})],
    )
    def test_variables_are_the_names_read(self, text, names):
        fn = parse_tri(text)
        assert fn.variables == frozenset(names)
        # the compiled closure reads nothing else
        assert fn._compiled(dict.fromkeys(names, np.ones(2))) is not None


class TestOneEvaluator:
    # expressions finite with finite jets on the whole sampled range
    TEXTS = sorted(
        set(CATALOG_TEXTS)
        | {"cos(x)", "exp(x)", "sqrt(1 + x^2)", "abs_smooth(x)", "(1 + x^2)/(2 + sin(x))",
           "x * bump(x)", "-bump(x)", "exp(tanh(x)) * (1 - bump(x))", "1/(1 + x^2)^2", "2"}
    )

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.sampled_from(TEXTS),
        xs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40).map(np.array),
    )
    def test_arrays_scalars_values_and_jets_agree_bitwise(self, text, xs):
        fn = parse_scalar(text)
        values = fn(xs)
        jets = fn.eval2(xs)
        assert values.shape == xs.shape and all(part.shape == xs.shape for part in jets)
        assert jets[0].tobytes() == values.tobytes()
        for k, x in enumerate(xs.tolist()):
            assert np.float64(fn(x)).tobytes() == values[k].tobytes()
            point = fn.eval2(x)
            assert all(type(part) is float for part in point)
            assert np.array(point).tobytes() == np.array([part[k] for part in jets]).tobytes()

    TRI_TEXTS = (
        "t + 2*y - z", "0.3*y + 0.2*z", "-abs_smooth(z)", "y*exp(-z^2)", "0.5*z/(1 + y^2)^2",
        "tanh(y) * sin(t + z)", "y^3 - bump(z)", "exp(y) - cos(z)", "1/y", "y^2", "2",
    )

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.sampled_from(TRI_TEXTS),
        points=st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), min_size=1, max_size=40
        ).map(np.array),
    )
    @example(text="1/y", points=np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 0.0]]))
    @example(text="y^2", points=np.array([[0.0, 1e200, 0.0]]))
    @example(text="exp(y) - cos(z)", points=np.array([[0.0, 1000.0, 0.0]]))
    def test_tri_points_agree_with_arrays_bitwise(self, text, points):
        # a point call returns the array call's bits there, or EvalDomainError where that is not finite
        fn = parse_tri(text)
        t, y, z = (np.ascontiguousarray(column) for column in points.T)
        values = np.broadcast_to(fn(t, y, z), t.shape)
        for k, point in enumerate(points.tolist()):
            if not np.isfinite(values[k]):
                with pytest.raises(EvalDomainError):
                    fn(*point)
                continue
            value = fn(*point)
            assert type(value) is float
            assert np.float64(value).tobytes() == values[k].tobytes()
