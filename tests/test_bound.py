"""``interleaving._bound``, the one integer a threshold becomes on a pair's
lattice: its value in each case of E = eps*S, the decisions and checks it
drives against the ``ExtRational`` references at those cases, the keys it
spares from rescaling, and the order in which a decision refuses input."""

from fractions import Fraction

import pytest

from persistd import (
    EMPTY,
    PModule,
    are_eps_interleaved,
    modules_eps_interleaved,
    parse_interval,
    verify_certificate,
)
from persistd import bottleneck, interleaving
from persistd.cli import cli_main
from persistd.interleaving import _bound, _lattice
from persistd.intervals import _ends

from oracles import (
    index_certificate,
    reference_are_eps_interleaved,
    reference_modules_eps_interleaved,
    reference_verify_certificate,
)


# On integer endpoints S = 4 and on half-integers S = 8, so these eps put
# E = eps*S on each side of every case below.
EPSS = [Fraction(k, q) for q in (1, 2, 3, 4, 8) for k in range(0, 2 * q + 1)] + [Fraction(100)]

POOL = ["[0,1)", "(0,1]", "[0,1]", "(0,1)", "[1/2,2)", "(-1/2,3/2]", "[1,1]",
        "(-inf,1/2)", "[-1/2,inf)", "(-inf,inf)", "(-inf,1]"]


def case(eps: Fraction, scale: int, reach: int) -> str:
    """Which branch of ``_bound`` eps takes on a lattice of scale S."""
    num, den = eps.numerator * scale, eps.denominator
    if eps == 0:
        return "zero"
    if 2 * num > (4 * reach + 1) * den:
        return "clamp"
    kind = "even" if num % (2 * den) == 0 else "odd" if num % den == 0 else "fraction"
    # num/den is not reduced: den > 1 with E an integer is the case a test
    # of den == 1 gets wrong.
    return kind if kind == "fraction" else f"{kind}, den {'1' if den == 1 else '> 1'}"


ALL_CASES = {"zero", "even, den 1", "even, den > 1", "odd, den > 1", "fraction", "clamp"}


@pytest.mark.parametrize("eps,scale,reach,expected", [
    (Fraction(0), 4, 8, 0),
    (Fraction(1), 4, 8, 8),            # E = 4, even, den 1: 2E
    (Fraction(1, 2), 4, 8, 4),         # E = 2, even, den 2: 2E
    (Fraction(1, 4), 4, 8, 1),         # E = 1, odd, den 4: class 0's top
    (Fraction(3, 4), 4, 8, 5),         # E = 3: class 2's top
    (Fraction(1, 3), 4, 8, 1),         # E = 4/3: class 0's top
    (Fraction(2, 3), 4, 8, 5),         # E = 8/3: class 2's top
    (Fraction(100), 4, 8, 33),         # past fin = 4*reach + 1
    (Fraction(8), 4, 8, 33),           # 2E = 64 > fin as well
    (Fraction(1, 8), 8, 0, 1),         # E = 1 clamped to fin = 1
])
def test_bound_values(eps, scale, reach, expected):
    assert _bound(eps, scale, reach) == expected


def test_bound_refuses_negative_and_float_eps():
    with pytest.raises(ValueError, match=r"^interleaving needs eps >= 0, got -1/3$"):
        _bound(Fraction(-1, 3), 4, 8)
    with pytest.raises(TypeError, match="floats are not accepted"):
        _bound(0.5, 4, 8)


def test_interval_decisions_at_every_case():
    seen = set()
    intervals = [EMPTY, *map(parse_interval, POOL)]
    for i in intervals:
        for j in intervals:
            lcm, reach = interleaving._view([_ends(s) for s in (i, j) if not s.is_empty])[:2]
            for eps in EPSS:
                seen.add(case(eps, 4 * lcm, reach))
                assert are_eps_interleaved(i, j, eps) == reference_are_eps_interleaved(i, j, eps), (
                    str(i), str(j), eps)
    assert seen == ALL_CASES


MODULES = [PModule.zero(), *(PModule.of(t) for t in POOL[::2]),
           *(PModule.of(a, b) for a, b in zip(POOL[:3], POOL[7:]))]


def test_module_decisions_and_checks_at_every_case():
    """Decisions, and the certificate check of a fixed matching at threshold
    eps, against the references at every case; past the clamp, a pair of
    infinite distance stays out."""
    seen, clamped_out = set(), False
    for m in MODULES:
        for n in MODULES:
            scale, reach, _, _ = _lattice(m._lattice_view(), n._lattice_view())
            for eps in EPSS:
                kind = case(eps, scale, reach)
                seen.add(kind)
                expected = reference_modules_eps_interleaved(m, n, eps)
                assert modules_eps_interleaved(m, n, eps) == expected, (m.to_json(), n.to_json(), eps)
                cert = index_certificate(m, n, eps)
                checked = reference_verify_certificate(m, n, cert)
                assert verify_certificate(m, n, cert) == checked, (m.to_json(), n.to_json(), eps)
                clamped_out |= kind == "clamp" and not expected and not checked
    assert seen == ALL_CASES and clamped_out


def test_new_eps_denominator_rescales_no_keys(monkeypatch):
    """Both views at scale 4*6 with no infinite endpoint: a decision at eps
    with a new denominator returns each view's own key columns, and the
    per-interval decision builds no pair lattice at all."""
    m, n = PModule.of("[0,1/2)", "(1/3,2]", "[1/6,1/6]"), PModule.of("[1/6,1]", "(1/2,5/3)")
    returned = []
    real = interleaving._rescaled

    def recorded(view, f, big):
        out = real(view, f, big)
        returned.append(out is view[3])
        return out

    monkeypatch.setattr(interleaving, "_rescaled", recorded)
    i, j = parse_interval("[0,1/2)"), parse_interval("(1/3,1]")
    for eps in (Fraction(1, 7), Fraction(5, 64), Fraction(2, 9), Fraction(7, 3)):
        assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)
        assert are_eps_interleaved(i, j, eps) == reference_are_eps_interleaved(i, j, eps)
    assert returned == [True] * 8
    # The patch is live: a pair of different scales rescales one side.
    returned.clear()
    modules_eps_interleaved(m, PModule.of("[0,1/5)"), Fraction(1, 7))
    assert returned == [False, False]


class TestRefusalOrder:
    """The library refuses the vertex cap first (``TestVertexCap`` in
    ``test_bottleneck.py``), then the key budget, then eps's type and sign,
    which only ``interleaving._bound`` reads.  The command line parses
    ``--eps`` before it loads the modules, so there a malformed eps comes
    first and a negative one after the budget."""

    def test_cap_before_budget_before_eps(self, monkeypatch):
        m, n = PModule.of("[0,1/3)", "(1,4]"), PModule.of("[1/5,2)")
        monkeypatch.setattr(bottleneck, "KEYS_BUDGET", 1)
        monkeypatch.setattr(bottleneck, "MATCH_CAP", 2)
        for eps in (0.5, -1, 1):
            with pytest.raises(ValueError, match="exceeds the vertex cap 2$"):
                modules_eps_interleaved(m, n, eps)
        monkeypatch.setattr(bottleneck, "MATCH_CAP", 3)
        for eps in (0.5, -1, 1):
            with pytest.raises(ValueError, match="exceed the key budget 1 "):
                modules_eps_interleaved(m, n, eps)
        monkeypatch.undo()
        with pytest.raises(TypeError, match="floats are not accepted"):
            modules_eps_interleaved(m, n, 0.5)
        with pytest.raises(ValueError, match=r"^interleaving needs eps >= 0, got -1$"):
            modules_eps_interleaved(m, n, -1)

    def test_cli_error_lines(self, capsys, tmp_path, monkeypatch):
        paths = []
        for name, module in (("a", PModule.of("[0,1/3)", "(1,4]")), ("b", PModule.of("[1/5,2)"))):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as file:
                file.write(module.to_json())
        argv = ["interleaved", "--eps=-1/2", *paths]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "error: interleaving needs eps >= 0, got -1/2\n")
        monkeypatch.setattr(bottleneck, "KEYS_BUDGET", 1)
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "error: 2+1 distinct summands on a lattice of 5 bits "
                                           "exceed the key budget 1 (15)\n")
