import collections
import math

import numpy as np
import pytest

from lzphi import (
    LZ,
    PHI,
    PHI_SQUARED,
    SIN_PHI,
    THETA,
    THETA_PHI,
    CircularState,
    PendulumState,
    RelationId,
    RelationParams,
    RotorSuperposition,
    SphericalState,
    Verdict,
    chi,
    delta_chi,
    evaluate,
    fourier_boundary_term,
    gamma,
    lz_phi_symmetry_deficit,
    symmetry_deficit,
)
from lzphi.observables import applicable
from lzphi.relations import gamma_weighted_sum
from lzphi.states import family_of

from .conftest import pendulums_of_two_widths, random_rotor, random_spherical


class TestRestrictedRelation:
    def test_pendulum_ground_state_equality(self):
        report = evaluate(RelationId.R5, PendulumState(n=0))
        assert report.lhs == pytest.approx(0.5, abs=1e-10)
        assert report.rhs == pytest.approx(0.5)
        assert report.verdict == Verdict.SATISFIED_WITH_EQUALITY

    def test_pendulum_ladder(self):
        for n in range(11):
            report = evaluate(RelationId.R5, PendulumState(n=n))
            assert report.lhs == pytest.approx(n + 0.5, abs=1e-10)
            want = Verdict.SATISFIED_WITH_EQUALITY if n == 0 else Verdict.SATISFIED
            assert report.verdict == want

    def test_circular_violates_ungated_form(self):
        report = evaluate(RelationId.R5, CircularState(m=2))
        assert report.verdict == Verdict.VIOLATED

    def test_gate_blocks_circular(self):
        report = evaluate(RelationId.R33, CircularState(m=4))
        assert report.verdict == Verdict.NOT_APPLICABLE
        assert report.condition31 is False
        assert report.diagnostics["deficit_abs"] == pytest.approx(1.0)

    def test_gate_admits_pendulum(self):
        report = evaluate(RelationId.R33, PendulumState(n=1))
        assert report.condition31 is True
        assert report.verdict == Verdict.SATISFIED

    def test_gate_admits_balanced_spherical(self):
        state = SphericalState(l=1, coefficients=(2**-0.5, 0, 2**-0.5))
        report = evaluate(RelationId.R33, state)
        assert report.condition31 is True
        assert report.verdict == Verdict.SATISFIED


class TestAlternativeInequalities:
    def test_r6_degenerates_on_circular(self):
        report = evaluate(RelationId.R6, CircularState(m=1))
        assert report.verdict == Verdict.INDETERMINATE
        assert abs(report.diagnostics["denominator"]) < 1e-12

    def test_r7_negative_denominator(self):
        report = evaluate(RelationId.R7, CircularState(m=1))
        assert report.verdict == Verdict.INDETERMINATE
        assert report.diagnostics["denominator"] < 0

    def test_r14_circular(self):
        report = evaluate(RelationId.R14, CircularState(m=5))
        assert report.lhs == pytest.approx(math.pi**2 / 3, abs=1e-9)
        assert report.rhs == pytest.approx(1.0)
        assert report.verdict == Verdict.SATISFIED

    def test_r8_requires_alpha(self):
        with pytest.raises(ValueError):
            evaluate(RelationId.R8, CircularState(m=1))

    def test_r8_rhs_formula(self):
        alpha = 1.5
        report = evaluate(RelationId.R8, CircularState(m=1), RelationParams(alpha=alpha))
        want = 0.5 * (math.sqrt(9 / math.pi**2 + alpha**2) - 3 / math.pi**2)
        assert report.rhs == pytest.approx(want, rel=1e-12)

    def test_r10_r11_on_circular(self):
        # as printed, the right side keeps <cos^2> and an eigenstate violates
        r10 = evaluate(RelationId.R10, CircularState(m=2))
        assert r10.rhs == pytest.approx(1 / 8)
        assert r10.verdict == Verdict.VIOLATED
        r11 = evaluate(RelationId.R11, CircularState(m=2))
        assert r11.rhs == pytest.approx(1 / 8)

    def test_r12_uses_printed_width(self):
        report = evaluate(RelationId.R12, CircularState(m=0), RelationParams(N=1, N1=0))
        assert report.diagnostics["delta_chi"] == pytest.approx(delta_chi(1, 0))
        assert report.verdict == Verdict.VIOLATED  # dLz = 0 on an eigenstate

    def test_r12_rejects_equal_windings(self):
        with pytest.raises(ValueError):
            evaluate(RelationId.R12, CircularState(m=0), RelationParams(N=1, N1=1))


class TestSchwarzRelation:
    def test_trivial_equality_on_circular(self):
        report = evaluate(RelationId.R30, CircularState(m=4))
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.verdict == Verdict.SATISFIED_WITH_EQUALITY
        assert report.diagnostics.get("trivial_zero") == 1.0

    def test_never_violated_across_families(self, fixture_states):
        for state in fixture_states:
            report = evaluate(RelationId.R30, state)
            assert report.verdict != Verdict.VIOLATED


class TestBoundaryRelation:
    def test_circular_degenerates_to_zero(self):
        for m in (-3, 0, 2):
            report = evaluate(RelationId.R52, CircularState(m=m))
            assert report.lhs == pytest.approx(0.0, abs=1e-10)
            assert report.rhs == pytest.approx(0.0, abs=1e-10)
            assert report.verdict == Verdict.SATISFIED_WITH_EQUALITY

    def test_boundary_term_values(self):
        assert fourier_boundary_term(CircularState(m=5)) == pytest.approx(0.0, abs=1e-12)
        full = RotorSuperposition({0: 2**-0.5, 1: 2**-0.5})
        assert fourier_boundary_term(full) == pytest.approx(1.0, abs=1e-12)
        single = RotorSuperposition({0: 1.0})
        assert fourier_boundary_term(single) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_term_needs_a_periodic_family(self):
        with pytest.raises(ValueError, match="needs a periodic family, got spherical"):
            fourier_boundary_term(SphericalState(1, (0, 1, 0)))

    @pytest.mark.parametrize("top", [10**12, 2**52])
    def test_boundary_term_is_exact_at_large_m(self, top):
        """2*pi*|psi(2*pi)|^2 = |sum_m c_m|^2 for integer m; no phase m*2*pi is formed."""
        state = RotorSuperposition({0: 0.6, top: 0.8})
        assert abs(fourier_boundary_term(state) - 0.96) <= 1e-15
        assert evaluate(RelationId.R15, state).rhs == pytest.approx(0.48, abs=1e-15)

    def test_r15_matches_r52(self):
        state = RotorSuperposition({0: 0.6, 1: 0.8})
        a = evaluate(RelationId.R15, state)
        b = evaluate(RelationId.R52, state)
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)

    def test_rejects_spherical(self):
        with pytest.raises(ValueError):
            evaluate(RelationId.R52, SphericalState(l=1, coefficients=(1, 0, 0)))

    def test_holds_on_random_rotors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            report = evaluate(RelationId.R52, random_rotor(rng))
            assert report.verdict != Verdict.VIOLATED


def _seam_states():
    """Seeded rotors (span up to 480, 1-11 modes) and spherical states (l up to 64),
    three states on each basis, so that a shared stack has several rows."""
    rng = np.random.default_rng(1552)
    states = []
    for span in (1, 7, 60, 480):
        k = int(rng.integers(1, min(span + 1, 11) + 1))
        ms = rng.choice(np.arange(-(span // 2), span - span // 2 + 1), size=k, replace=False)
        for _ in range(3):
            c = rng.normal(size=k) + 1j * rng.normal(size=k)
            c /= np.linalg.norm(c)
            states.append(RotorSuperposition({int(m): x for m, x in zip(ms, c)}))
    for l in (0, 1, 4, 17, 64):
        states += [random_spherical(rng, l) for _ in range(3)]
    return states


#: the relations that read the seam density, and R33, which the deficit gates
_SEAM_RELATIONS = {
    "circular": (RelationId.R15, RelationId.R52, RelationId.R33),
    "rotor": (RelationId.R15, RelationId.R52, RelationId.R33),
    "spherical": (RelationId.R58, RelationId.R33),
    "pendulum": (RelationId.R33,),
}


class TestSeamDensity:
    """The gate deficit, the R15/R52 boundary term and R58's gamma sum read one seam density."""

    def test_every_reader_takes_the_same_seam(self, fixture_states):
        from lzphi import relations

        states = list(fixture_states) + _seam_states()
        selections = [[(rid, None) for rid in _SEAM_RELATIONS[family_of(state)]] for state in states]

        # nothing shared: each state is its own one-row stack
        lone = [[_report_values(evaluate(rid, state)) for rid, _ in sel]
                for state, sel in zip(states, selections)]
        for state, rows in zip(states, lone):
            assert lz_phi_symmetry_deficit(state) == symmetry_deficit(LZ, PHI, state)
            for relation, *_, diagnostics in rows:
                if relation in (RelationId.R15, RelationId.R52):
                    assert diagnostics["boundary_term"] == fourier_boundary_term(state)
                elif relation == RelationId.R58:
                    assert diagnostics["gamma_sum"] == gamma_weighted_sum(state)
        # one point per state; the walk stacks the states of every point
        points = [((("s", state),), sel) for state, sel in zip(states, selections)]
        stacked = [[] for _ in states]
        for point, report in relations.report_rows(points, 1e-9):
            stacked[point].append(_report_values(report))
        assert stacked == lone
        # every pair with a boundary jump, ThetaPhi's weighted by the theta-weighted seam: the
        # one-state deficit is, bit for bit, the deficit_ab of R60(a=Lz, b) walked on shared stacks
        for b in (PHI, PHI_SQUARED, THETA_PHI, chi(1), chi(-3)):
            named = tuple((f"s{k}", state) for k, state in enumerate(states)
                          if applicable(b, family_of(state)))
            selection = ((RelationId.R60, RelationParams(pair=(LZ, b))),)
            walked = [report for _, report in relations.report_rows([(named, selection)], 1e-9)]
            assert len(walked) == len(named) and max(len(r.column.lhs) for r in walked) > 1, b
            deficits = [symmetry_deficit(LZ, b, state) for _, state in named]
            rows = [(r.diagnostics["deficit_ab_re"], r.diagnostics["deficit_ab_im"]) for r in walked]
            assert repr(rows) == repr([(d.real, d.imag) for d in deficits]), b
            assert sum(d.imag != 0.0 for d in deficits) > len(deficits) // 2, b

    def test_gamma_sum_needs_a_sphere(self):
        for state in (CircularState(m=1), RotorSuperposition({0: 0.6, 1: 0.8}), PendulumState(n=1)):
            with pytest.raises(ValueError, match="needs spherical states"):
                gamma_weighted_sum(state)


class TestGamma:
    def test_normalization(self):
        assert gamma(2, 1, 1) == pytest.approx(1.0, abs=1e-10)

    def test_magnitudes_of_reflected_orders(self):
        assert abs(gamma(2, 1, -1)) == pytest.approx(1.0, abs=1e-10)
        assert abs(gamma(2, 2, -2)) == pytest.approx(1.0, abs=1e-10)
        # the signed values follow the Condon-Shortley reflection rule
        assert gamma(2, 1, -1) == pytest.approx(-1.0, abs=1e-10)
        assert gamma(2, 2, -2) == pytest.approx(1.0, abs=1e-10)

    def test_parity_zero(self):
        assert gamma(2, 2, 1) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            gamma(2, 3, 0)

    @pytest.mark.parametrize("l", [65, 70, -1])
    def test_rejects_l_outside_documented_range(self, l):
        with pytest.raises(ValueError, match="0 <= l <= 64"):
            gamma(l, 0, 0)

    def test_accepts_l_at_the_bound(self):
        assert gamma(64, 5, 5) == pytest.approx(1.0, abs=1e-10)
        assert abs(gamma(64, 64, -64)) == pytest.approx(1.0, abs=1e-10)


class TestDeltaChi:
    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            delta_chi(0, 0)

    def test_printed_value(self):
        assert delta_chi(1, 0) == pytest.approx(math.pi * math.sqrt(25 / 6), rel=1e-12)

    def test_negative_radicand(self):
        with pytest.raises(ValueError, match="radicand"):
            delta_chi(0, 1)

    @pytest.mark.parametrize(
        "N, N1",
        [(1, 0), (100000001, 100000000), (-7, 3), (3 * 10**7, -2), (10**15, 10**15 - 1)],
    )
    def test_matches_a_decimal_reference(self, N, N1):
        import decimal

        with decimal.localcontext() as ctx:
            ctx.prec = 50
            pi = decimal.Decimal("3.14159265358979323846264338327950288419716939937511")
            radicand = 2 * pi**2 * (decimal.Decimal(1) / 12 + N * N - N1 * N1 + N - N1)
            want = float(radicand.sqrt())
        assert delta_chi(N, N1) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "N, N1", [(10**400, 0), (10**160, 1), (10**154, 0)], ids=["1e400", "1e160", "1e154"]
    )
    def test_windings_without_a_finite_width_are_refused(self, N, N1):
        with pytest.raises(ValueError, match="not a finite float"):
            delta_chi(N, N1)


class TestSphericalRelation:
    def test_zonal_harmonic_at_the_top_of_the_range_is_exact(self):
        """Y_64,0: the gamma-weighted sum is 1 and the theta-phi correlation 0."""
        state = SphericalState(l=64, coefficients={0: 1.0})
        r58 = evaluate(RelationId.R58, state)
        assert abs(r58.diagnostics["gamma_sum"] - 1.0) < 1e-14
        assert r58.verdict == Verdict.SATISFIED_WITH_EQUALITY
        assert abs(evaluate(RelationId.R36, state).diagnostics["corr_re"]) < 1e-14

    def test_never_violated_on_random_states(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            l = int(rng.integers(1, 4))
            report = evaluate(RelationId.R58, random_spherical(rng, l))
            assert report.lhs >= report.rhs - 1e-9

    def test_balanced_state_has_active_bound(self):
        state = SphericalState(l=1, coefficients=(2**-0.5, 0, 2**-0.5))
        report = evaluate(RelationId.R58, state)
        assert report.rhs == pytest.approx(0.5, abs=1e-9)
        assert report.verdict == Verdict.SATISFIED


class TestCommutingPair:
    def test_nonzero_bound_with_zero_commutator(self):
        state = SphericalState(l=1, coefficients={0: math.cos(0.7), 1: 1j * math.sin(0.7)})
        report = evaluate(RelationId.R36, state)
        assert report.rhs > 0.01
        assert report.verdict == Verdict.SATISFIED
        from lzphi import commutator_mean

        assert abs(commutator_mean(THETA, PHI, state)) < 1e-10

    def test_real_mixtures_degenerate(self):
        state = SphericalState(l=1, coefficients={-1: math.cos(0.5), 1: math.sin(0.5)})
        report = evaluate(RelationId.R36, state)
        assert report.rhs == pytest.approx(0.0, abs=1e-10)


class TestGenericPair:
    def test_pendulum_recovers_restricted_bound(self):
        report = evaluate(RelationId.R60, PendulumState(n=2), RelationParams(pair=(LZ, PHI)))
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.lhs == pytest.approx(2.5, abs=1e-10)
        assert report.condition31 is True

    def test_gate_blocks_circular(self):
        report = evaluate(RelationId.R60, CircularState(m=1), RelationParams(pair=(LZ, PHI)))
        assert report.verdict == Verdict.NOT_APPLICABLE

    def test_bounded_symbol_pair_applies_on_circle(self):
        report = evaluate(RelationId.R60, CircularState(m=1), RelationParams(pair=(LZ, SIN_PHI)))
        assert report.condition31 is True
        assert report.verdict != Verdict.NOT_APPLICABLE

    def test_requires_pair(self):
        with pytest.raises(ValueError):
            evaluate(RelationId.R60, CircularState(m=1))

    def test_refuses_an_n(self):
        """R60's winding lives in its Chi side; an N it would ignore is refused."""
        with pytest.raises(ValueError, match="R60 takes no N"):
            evaluate(RelationId.R60, PendulumState(n=2), RelationParams(pair=(LZ, PHI), N=5))

    @pytest.mark.parametrize(
        "state",
        [
            CircularState(m=3),
            RotorSuperposition({-1: 0.6, 2: 0.8j}),
            SphericalState(l=2, coefficients=(0.1, 0.3j, 0.5, -0.4, 0.2 + 0.3j), normalize=True),
        ],
    )
    def test_deficit_orderings(self, state):
        """R60 gates on both orderings: with Lz second the ab deficit is 0 and the ba one counts."""
        lz_second = evaluate(RelationId.R60, state, RelationParams(pair=(PHI, LZ))).diagnostics
        assert (lz_second["deficit_ab_re"], lz_second["deficit_ab_im"]) == (0.0, 0.0)
        assert lz_second["deficit_abs"] == abs(symmetry_deficit(LZ, PHI, state)) > 0
        lz_lz = evaluate(RelationId.R60, state, RelationParams(pair=(LZ, LZ))).diagnostics
        assert lz_lz["deficit_abs"] == 0.0


class TestScaleCovariance:
    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
    def test_hbar_scales_both_sides(self, scale):
        base = evaluate(RelationId.R5, PendulumState(n=3))
        scaled = evaluate(RelationId.R5, PendulumState(n=3, hbar=scale))
        assert scaled.lhs == pytest.approx(scale * base.lhs, rel=1e-12)
        assert scaled.rhs == pytest.approx(scale * base.rhs, rel=1e-12)
        assert scaled.verdict == base.verdict

    def test_gated_relation_verdict_invariant(self):
        for scale in (0.5, 3.0):
            report = evaluate(RelationId.R33, CircularState(m=2, hbar=scale))
            assert report.verdict == Verdict.NOT_APPLICABLE
            assert report.diagnostics["deficit_abs"] == pytest.approx(scale)


def _report_values(report):
    return (
        report.relation,
        report.lhs,
        report.rhs,
        report.verdict,
        report.condition31,
        report.diagnostics,
    )


def _state_a():
    return SphericalState(l=2, coefficients=(0.1, 0.3j, 0.5, -0.4, 0.2 + 0.3j), normalize=True)


def _state_b():
    return SphericalState(l=3, coefficients={0: math.cos(0.4), 3: 1j * math.sin(0.4)})


_SPHERICAL_SELECTION = (
    (RelationId.R5, None),
    (RelationId.R8, RelationParams(alpha=1.5)),
    (RelationId.R10, None),
    (RelationId.R30, None),
    (RelationId.R33, None),
    (RelationId.R36, None),
    (RelationId.R58, None),
    (RelationId.R60, RelationParams(pair=(LZ, SIN_PHI))),
)


class TestMomentTable:
    """A walk computes each state's moments once, however many relations read them."""

    def test_std_dev_once_per_kind_per_state(self, monkeypatch):
        from lzphi import relations, specio
        from lzphi import moments as mo

        doc = specio.parse(
            "state circular m=2\n"
            "state rotor c={0:(0.6,0),3:(0,0.8)}\n"
            "state spherical l=2 c=[(0,0),(0.6,0),(0,0),(0,0.8),(0,0)]\n"
            "relations R5 R6 R7 R8(alpha=1.5) R10 R11 R14 R30 R33 R60(a=Lz,b=SinPhi)\n"
        )
        calls = collections.Counter()
        real = mo.MomentStack.std.__wrapped__

        def std(stack, kind):
            for state in stack.states:
                calls[(id(state), kind)] += 1
            return real(stack, kind)

        # count the computations behind the stack's memo, one per row and kind
        monkeypatch.setattr(mo.MomentStack, "std", mo._memoized(std))
        tol = doc.settings.tolerance
        reports = list(relations.report_rows([(doc.states, doc.selections)], tol))
        assert len(reports) == 3 * 10
        # Lz, Phi, SinPhi and CosPhi on each of the three states
        assert len(calls) == 3 * 4
        assert set(calls.values()) == {1}

    def test_shared_states_compute_each_kind_once_for_all_rows(self, monkeypatch):
        from lzphi import COS_PHI, relations
        from lzphi import moments as mo

        rng = np.random.default_rng(5)
        states = [random_spherical(rng, 3) for _ in range(6)]
        computed = collections.Counter()
        real = mo.MomentStack.std.__wrapped__

        def std(stack, kind):
            computed[(len(stack.states), kind)] += 1
            return real(stack, kind)

        monkeypatch.setattr(mo.MomentStack, "std", mo._memoized(std))
        points = [(tuple((f"s{k}", s) for k, s in enumerate(states)), _SPHERICAL_SELECTION)]
        got = [_report_values(report) for _, report in relations.report_rows(points, 1e-9)]
        # one computation per kind, each covering all six states
        assert computed == {(6, kind): 1 for kind in (LZ, PHI, SIN_PHI, COS_PHI, THETA)}
        fresh = [
            _report_values(evaluate(rid, SphericalState(s.l, s.coefficients), p))
            for s in states
            for rid, p in _SPHERICAL_SELECTION
        ]
        assert got == fresh

    def test_threads_sharing_the_slot_get_their_own_numbers(self):
        """Threads stack their own copies of the states, each at its own hbar; none reads
        another's rows."""
        import sys
        import threading

        from lzphi import relations

        rng = np.random.default_rng(11)
        states = [random_spherical(rng, l) for l in (1, 2, 3, 4) for _ in range(2)]
        copies = [
            [SphericalState(state.l, state.coefficients, hbar=hbar) for state in states]
            for hbar in (1.0, 1.5, 2.0, 3.0)
        ]

        def reports(state):
            return [_report_values(evaluate(rid, state, p)) for rid, p in _SPHERICAL_SELECTION]

        want = {
            id(state): reports(SphericalState(state.l, state.coefficients, hbar=state.hbar))
            for own in copies
            for state in own
        }
        wrong = []

        def work(own):
            points = [(tuple(("s", state) for state in own), _SPHERICAL_SELECTION)]
            own_want = [values for state in own for values in want[id(state)]]
            try:
                for _ in range(15):
                    got = [_report_values(report) for _, report in relations.report_rows(points, 1e-9)]
                    wrong.extend(k for k, values in enumerate(got) if values != own_want[k])
            except Exception as exc:  # recorded, so the assertion below reports it
                wrong.append(exc)

        threads = [threading.Thread(target=work, args=(own,)) for own in copies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_interleaved_states_match_fresh_evaluations(self):
        a, b = _state_a(), _state_b()
        interleaved = [
            _report_values(evaluate(rid, state, params))
            for state in (a, b, a)
            for rid, params in _SPHERICAL_SELECTION
        ]
        fresh = [
            _report_values(evaluate(rid, make(), params))
            for make in (_state_a, _state_b, _state_a)
            for rid, params in _SPHERICAL_SELECTION
        ]
        assert interleaved == fresh

    def test_analytic_moments_ignore_the_settings(self, tmp_path, capsys, oracle_rule):
        """The oracle's rule sizes reach neither the analytic moments nor the R36 report."""
        from lzphi import cli, correlation, std_dev

        state = _state_a()
        coefficients = ",".join(f"({c.real!r},{c.imag!r})" for c in state.coefficients)
        spec = tmp_path / "r36.spec"
        spec.write_text(f"state spherical name=a l=2 c=[{coefficients}]\nrelations R36\n", encoding="utf-8")

        def observed():
            moments = [std_dev(kind, state) for kind in (THETA, PHI)]
            moments.append(correlation(THETA, PHI, state).value)
            assert cli.main(["eval", str(spec)]) in (0, 1, 2)
            return moments, capsys.readouterr().out

        sized = observed()
        oracle_rule("theta_rule_size", 6)
        oracle_rule("phi_rule_size", 6)
        assert '"relation": "R36"' in sized[1]
        assert observed() == sized


class TestRelationColumns:
    """Each relation's verdict is computed once per moment stack; evaluate reads a row."""

    def test_each_column_is_computed_once_per_stack(self, monkeypatch):
        from lzphi import relations

        rng = np.random.default_rng(3)
        states = [random_spherical(rng, 3) for _ in range(5)]
        computed = collections.Counter()
        real = relations._relation_column

        def column(stack, relation, params, tol):
            computed[(len(stack.states), relation, params, tol)] += 1
            return real(stack, relation, params, tol)

        monkeypatch.setattr(relations, "_relation_column", column)
        named = tuple((f"s{k}", state) for k, state in enumerate(states))
        selection = _SPHERICAL_SELECTION + ((RelationId.R8, RelationParams(alpha=-0.5)),)
        # two points of the same states: the walk stacks them once
        assert len(list(relations.report_rows([(named, selection)] * 2, 1e-9))) == 2 * 5 * 9
        # the walk's stacks are its own: each lone evaluate, after it too, builds its state's
        # one-row stack, so two on one state build two
        for state in states:
            for _ in range(2):
                evaluate(RelationId.R5, state, tol=1e-6)
        want = {
            (5, rid, params or relations.NO_PARAMS, 1e-9): 1 for rid, params in _SPHERICAL_SELECTION
        }
        want[(1, RelationId.R5, relations.NO_PARAMS, 1e-6)] = 10
        want[(5, RelationId.R8, RelationParams(alpha=-0.5), 1e-9)] = 1
        assert computed == want

    def test_a_name_and_its_member_find_one_column(self):
        """The column memo keys on the relation: "R5" and RelationId.R5 hash and compare alike."""
        from lzphi import relations

        for rid in RelationId:
            assert hash(rid) == hash(rid.value) and rid == rid.value
        state = random_spherical(np.random.default_rng(5), 2)
        walked = relations.report_rows([((("s", state),), (("R5", None), (RelationId.R5, None)))], 1e-9)
        (_, by_name), (_, by_member) = walked
        assert by_name.column is by_member.column and by_name.index == by_member.index
        assert by_name.relation is RelationId.R5

    def test_a_walk_keeps_its_own_rows_when_something_else_runs_during_it(self):
        """Two walks run interleaved, or lone evaluations between a walk's reports, leave each
        walk reading its own stacks, with the bytes of a walk that runs alone."""
        import itertools

        from lzphi import relations, specio

        rng = np.random.default_rng(12)
        selection = ((RelationId.R5, None), (RelationId.R30, None))
        small = [(tuple((f"a{k}", random_spherical(rng, 2)) for k in range(4)), selection)]
        large = [(tuple((f"b{k}", random_spherical(rng, 3)) for k in range(5)), selection)]
        other = random_spherical(rng, 2)

        def walk(points):
            return (report for _, report in relations.report_rows(points, 1e-9))

        def text(reports):
            return [specio.serialize_report([report]) for report in reports]

        # (a) two walks zipped: every report has its own walk's rows, 4 or 5
        zipped = list(itertools.zip_longest(walk(small), walk(large)))
        small_zipped = [report for report, _ in zipped if report is not None]
        large_zipped = [report for _, report in zipped]
        assert [len(report.column.lhs) for report in small_zipped] == [4] * 8
        assert [len(report.column.lhs) for report in large_zipped] == [5] * 10
        # (b) a lone evaluate of another state after each report of a walk
        between = []
        for report in walk(small):
            between.append(report)
            evaluate(RelationId.R5, other)
        assert [len(report.column.lhs) for report in between] == [4] * 8
        # (c) the bytes of a walk with nothing run during it
        assert text(small_zipped) == text(between) == text(walk(small))
        assert text(large_zipped) == text(walk(large))

    def test_a_row_must_name_its_state(self):
        """evaluate reads the row it is handed, and refuses one that holds another state or none."""
        from lzphi import moments as mo

        rng = np.random.default_rng(13)
        states = [random_spherical(rng, 2) for _ in range(2)]
        stack = mo.MomentStack(states)
        report = evaluate(RelationId.R5, states[1], row=(stack, 1))
        assert report.column.lhs == [evaluate(RelationId.R5, state).lhs for state in states]
        for index in (0, 2, -1):
            with pytest.raises(ValueError, match="is not this state"):
                evaluate(RelationId.R5, states[1], row=(stack, index))

    def test_the_decision_step_takes_the_first_rule_that_holds(self):
        """``_decide`` over whole columns gives the verdict of the catalog's rule, row by row.

        The rule, restated for one row: NotApplicable if gated and condition31
        is false; Indeterminate if the denominator is <= 0 or below tol in size
        (lhs then prints 0); SatisfiedWithEquality if lhs and rhs are both
        <= tol (a trivial row) or |lhs - rhs| <= tol; Satisfied if lhs >= rhs - tol;
        else Violated. tol = 0.25 keeps every edge exact in binary.
        """
        from lzphi import relations

        tol, nan = 0.25, math.nan

        def rule(gated, c31, den, lhs, rhs):
            """(verdict, printed lhs, trivial) of one row."""
            indeterminate = den is not None and (den <= 0 or abs(den) < tol)
            if indeterminate:
                lhs = 0.0
            if gated and not c31:
                return Verdict.NOT_APPLICABLE, lhs, False
            if indeterminate:
                return Verdict.INDETERMINATE, lhs, False
            if lhs <= tol and rhs <= tol:
                return Verdict.SATISFIED_WITH_EQUALITY, lhs, True
            if abs(lhs - rhs) <= tol:
                return Verdict.SATISFIED_WITH_EQUALITY, lhs, False
            if lhs >= rhs - tol:
                return Verdict.SATISFIED, lhs, False
            return Verdict.VIOLATED, lhs, False

        pairs = [  # (lhs, rhs): NaN, the +-tol edges, trivial rows and plain ones
            (nan, 1.0), (1.0, nan), (nan, nan), (1.0, 1.25), (1.0, 0.75), (1.0, 1.5),
            (1.0, 1.25 + 2**-40), (1.25 + 2**-40, 1.0), (2.0, 1.0), (0.25, 0.25), (0.0, 0.0),
            (0.25, 0.0), (0.0, 0.5), (0.5, 0.0), (-1.0, 0.0), (3.0, -1.0),
        ]
        dens = [None, 1.0, 0.25, 0.25 - 2**-40, 0.0, -0.0, -2.0, nan]
        checked = 0
        for gated in (False, True):
            for den in dens:
                for c31 in ((True, False) if gated else (True,)):
                    lhs, rhs = (np.array(side) for side in zip(*pairs))
                    column_den = None if den is None else np.full(len(pairs), den)
                    condition31 = np.full(len(pairs), c31)
                    out_lhs, codes, trivial = relations._decide(
                        lhs, rhs, condition31, column_den, gated, tol)
                    for k, (l, r) in enumerate(pairs):
                        verdict, printed, is_trivial = rule(gated, c31, den, l, r)
                        case = (gated, c31, den, l, r)
                        assert relations._VERDICTS[codes[k]] is verdict, case
                        assert np.array_equal(out_lhs[k], printed, equal_nan=True), case
                        assert bool(trivial[k]) is is_trivial, case
                        checked += 1
        assert checked == len(pairs) * len(dens) * 3

    def test_lone_and_stacked_rows_serialize_the_same(self, fixture_states):
        """Every relation on every fixture state: a one-row stack and a walk's shared stacks agree
        byte for byte."""
        from lzphi import relations, specio

        rng = np.random.default_rng(8)
        states = list(fixture_states) + [random_spherical(rng, 3) for _ in range(3)] + [
            RotorSuperposition({-1: 0.8, 2: 0.6j}),
            RotorSuperposition({-1: 0.6j, 2: -0.8}, hbar=3.0),
        ] + pendulums_of_two_widths()
        with_params = (RelationId.R8, RelationId.R12, RelationId.R60)
        selection = [(rid, None) for rid in RelationId if rid not in with_params] + [
            (RelationId.R8, RelationParams(alpha=1.5)),
            (RelationId.R12, RelationParams(N=1, N1=0)),
            (RelationId.R60, RelationParams(pair=(LZ, PHI))),
            (RelationId.R60, RelationParams(pair=(LZ, PHI_SQUARED))),
            (RelationId.R60, RelationParams(pair=(LZ, SIN_PHI))),
            (RelationId.R60, RelationParams(pair=(THETA, PHI))),
        ]

        def lone(index, state, rid, params):
            """(the selection, its report's bytes) on a one-row stack, or (None, the error)."""
            try:
                report = evaluate(rid, state, params, state_name=f"s{index}")
            except ValueError as exc:
                return None, str(exc)
            assert len(report.column.lhs) == 1
            return (rid, params), specio.serialize_report([report])

        outcomes = [[lone(index, state, rid, params) for rid, params in selection]
                    for index, state in enumerate(states)]
        reported = [text for rows in outcomes for made, text in rows if made is not None]
        assert len(reported) > 200
        # one walk stacks every state, one point per state with the selections it reports on
        points = [(((f"s{index}", state),), [made for made, _ in rows if made is not None])
                  for index, (state, rows) in enumerate(zip(states, outcomes))]
        walked = [report for _, report in relations.report_rows(points, 1e-9)]
        assert max(len(report.column.lhs) for report in walked) == 65
        assert [specio.serialize_report([report]) for report in walked] == reported
        # a refused selection raises the same error on a walk that stacks every state
        everyone = (tuple(("s", s) for s in states), ())
        for index, (state, rows) in enumerate(zip(states, outcomes)):
            for (rid, params), (made, text) in zip(selection, rows):
                if made is None:
                    with pytest.raises(ValueError) as exc:
                        list(relations.report_rows(
                            [everyone, (((f"s{index}", state),), ((rid, params),))], 1e-9))
                    assert str(exc.value) == text

    def test_huge_alpha_raises(self):
        """An lhs that overflows at |alpha| > 1.3e154 is refused; the rhs stays finite."""
        for alpha in (1e200, -1e300):
            with pytest.raises(ValueError, match="R8 is not finite"):
                evaluate(RelationId.R8, CircularState(m=1), RelationParams(alpha=alpha))
        report = evaluate(RelationId.R8, CircularState(m=1), RelationParams(alpha=1e150))
        assert report.rhs == pytest.approx(0.5e150, rel=1e-15)

    def test_an_overflowing_row_is_a_coded_error_naming_its_state(self):
        from lzphi.relations import RowOverflowError

        params = RelationParams(alpha=1e200)
        with pytest.raises(RowOverflowError, match=r"^\[overflow\] relation R8 is not finite on this state "):
            evaluate(RelationId.R8, CircularState(m=1), params)
        with pytest.raises(RowOverflowError, match=r"^\[overflow\] relation R8 is not finite on state ring ") as exc:
            evaluate(RelationId.R8, CircularState(m=1), params, state_name="ring")
        assert isinstance(exc.value, ValueError) and exc.value.point == 0

    def test_overflowing_pendulum_relations_raise(self):
        """n = 3 with inertia, omega and hbar in 1e-200..1e200: every report is finite or refused."""
        import itertools
        import json

        from lzphi import specio

        selection = (
            (RelationId.R5, None),
            (RelationId.R6, None),
            (RelationId.R7, None),
            (RelationId.R8, RelationParams(alpha=1.5)),
            (RelationId.R12, RelationParams(N=1, N1=0)),
            (RelationId.R14, None),
            (RelationId.R30, None),
            (RelationId.R33, None),
            (RelationId.R60, RelationParams(pair=(LZ, PHI_SQUARED))),
        )
        scales = [10.0**e for e in range(-200, 201, 50)]
        states = refused = 0
        for inertia, omega, hbar in itertools.product(scales, scales, scales):
            try:
                state = PendulumState(n=3, inertia=inertia, omega=omega, hbar=hbar)
            except ValueError:
                continue
            states += 1
            reports = []
            for rid, params in selection:
                try:
                    report = evaluate(rid, state, params)
                except ValueError as exc:
                    assert "not finite" in str(exc)
                    # the products hbar*I*omega and hbar/(I*omega) are bounded by the state
                    assert rid not in (RelationId.R5, RelationId.R30, RelationId.R33)
                    refused += 1
                    continue
                numbers = (report.lhs, report.rhs, *report.diagnostics.values())
                assert all(math.isfinite(x) for x in numbers), (state, rid, report)
                reports.append(report)
            if reports:
                json.loads(specio.serialize_report(reports), parse_constant=pytest.fail)
        assert states == 437
        assert 0 < refused < states

    def test_phi_squared_spread_past_1e154_is_finite(self):
        """d(phi^2) is a closed form, not the root of a variance that overflows."""
        import warnings

        from lzphi import std_dev

        state = PendulumState(n=3, inertia=1e-200, omega=1e-100, hbar=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spread = std_dev(PHI_SQUARED, state)
            report = evaluate(RelationId.R60, state, RelationParams(pair=(LZ, PHI_SQUARED)))
        assert spread == pytest.approx(1e300 * math.sqrt(6.5), rel=1e-15)
        assert report.lhs == pytest.approx(std_dev(LZ, state) * spread, rel=1e-15)
        assert report.lhs == pytest.approx(4.7697e150, rel=1e-4)


def test_family_mismatch_raises():
    with pytest.raises(ValueError):
        evaluate(RelationId.R36, CircularState(m=0))
    with pytest.raises(ValueError):
        evaluate(RelationId.R58, PendulumState(n=0))


@pytest.mark.parametrize(
    "relation, params, tol, match",
    [
        (RelationId.R60, RelationParams(pair=(LZ,)), 1e-9, "R60 requires an observable pair"),
        (RelationId.R60, RelationParams(pair=(LZ, PHI, PHI)), 1e-9, "R60 requires an observable pair"),
        (RelationId.R60, RelationParams(pair=("Lz", "Phi")), 1e-9, "R60 requires an observable pair"),
        (RelationId.R12, RelationParams(N=1.5, N1=0), 1e-9, "R12 requires integer parameters"),
        (RelationId.R12, RelationParams(N=2, N1=0.0), 1e-9, "R12 requires integer parameters"),
        (RelationId.R8, RelationParams(alpha="1"), 1e-9, "R8 requires a finite real parameter"),
        (RelationId.R8, RelationParams(alpha=1j), 1e-9, "R8 requires a finite real parameter"),
        (RelationId.R5, None, math.nan, r"tolerance must be finite and >= 0, got nan"),
        (RelationId.R5, None, -1.0, r"tolerance must be finite and >= 0, got -1.0"),
        (RelationId.R5, None, math.inf, r"tolerance must be finite and >= 0, got inf"),
        # unhashable fields, which the column memo's key cannot hold
        (RelationId.R60, RelationParams(pair=[LZ, PHI]), 1e-9, "R60 requires an observable pair"),
        (RelationId.R8, RelationParams(alpha={}), 1e-9, "R8 requires a finite real parameter"),
    ],
)
def test_params_the_parser_cannot_build_are_refused(relation, params, tol, match):
    """What the spec parser refuses, the library refuses too, with a ValueError naming it."""
    with pytest.raises(ValueError, match=match):
        evaluate(relation, CircularState(m=1), params, tol)
