"""Subshift presentations, languages, certificates, and exact measures.

Languages of substitution systems are cross-checked against blocks of a
long fixed-point prefix computed by plain rule iteration, exact measures
against empirical frequencies in the same prefix, and the aperiodicity
verdicts of bijective rules against a period search on their fixed word.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from hyptile import subshift
from hyptile.algebraic import AlgebraicNumber, perron_eigenvalue
from hyptile.subshift import (
    _nullspace_measure,
    ExplicitWindow,
    HorizonExhausted,
    Periodic,
    Substitution,
    UnsupportedSpec,
    alphabet,
    approximate,
    block_substitution,
    check_minimal_aperiodic,
    constant_length,
    incidence_matrix,
    is_primitive,
    language,
    measure_vector,
    parse_spec,
    spec_to_json,
)

from oracles import (FIB, PD, S4, TM, TRIB, assert_perron_certificate,
                     fixed_word_aperiodic, is_primitive_matrix,
                     iterate_prefix, prefix_blocks, substitution_corpus)

F = Fraction

DOUBLING = Substitution.of({"1": "11"})
# fixed word (1234)^inf: constant length, primitive, not bijective
FOUR_CYCLE = Substitution.of({"1": "12", "2": "34", "3": "12", "4": "34"})
# bijective rules with periodic fixed word (12)^inf
BIJ_PERIODIC = Substitution.of({"1": "121", "2": "212"})


class TestSpecValidation:
    def test_periodic_empty_rejected(self):
        with pytest.raises(ValueError):
            Periodic("")

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            Periodic("1 2")

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Substitution.of({"1": "12", "2": ""})

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError, match="rules"):
            parse_spec({"type": "substitution", "rules": {}})

    def test_unknown_image_letter_rejected(self):
        with pytest.raises(ValueError):
            Substitution.of({"1": "13"})

    def test_window_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            ExplicitWindow("1", "2", 0)

    def test_json_round_trip(self):
        specs = [TM, FIB, Periodic("112"), ExplicitWindow("12", "121", 4)]
        for spec in specs:
            assert parse_spec(json.loads(json.dumps(spec_to_json(spec)))) == spec

    def test_json_shared_format(self):
        spec = parse_spec({"type": "substitution",
                           "rules": {"1": "12", "2": "21"}})
        assert spec == TM
        assert parse_spec({"type": "periodic", "word": "112"}) == Periodic("112")

    def test_json_unknown_type(self):
        with pytest.raises(ValueError):
            parse_spec({"type": "markov", "word": "1"})


class TestLanguage:
    def test_periodic_two_cycle(self):
        assert language(Periodic("01"), 2) == ["01", "10"]

    def test_periodic_single_letter(self):
        assert language(Periodic("1"), 5) == ["11111"]

    def test_thue_morse_two_blocks(self):
        assert language(TM, 2) == ["11", "12", "21", "22"]

    def test_matches_iteration_oracle(self):
        # every n up to 17, the length of the sampler's letter windows
        for spec in (TM, FIB, PD, TRIB, S4, FOUR_CYCLE):
            prefix = iterate_prefix(spec, 20_000)
            for n in range(1, 18):
                assert set(language(spec, n)) == prefix_blocks(prefix, n), \
                    (spec, n)

    def test_thue_morse_complexity(self):
        # exact complexity values of the Thue-Morse shift
        assert [len(language(TM, n)) for n in range(1, 7)] == [2, 4, 6, 10, 12, 16]

    def test_prefix_suffix_consistency(self):
        for spec in (TM, FIB, Periodic("112"), FOUR_CYCLE):
            for n in range(1, 5):
                smaller = set(language(spec, n))
                for w in language(spec, n + 1):
                    assert w[:n] in smaller and w[1:] in smaller

    def test_two_sided_extendability(self):
        for spec in (TM, FIB):
            for n in range(1, 5):
                bigger = language(spec, n + 1)
                for u in language(spec, n):
                    assert any(w[:n] == u for w in bigger)
                    assert any(w[1:] == u for w in bigger)

    def test_sorted_and_cached(self):
        first = language(TM, 3)
        assert first == sorted(first)
        first.append("junk")
        assert "junk" not in language(TM, 3)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            language(TM, 0)

    def test_non_expanding_rules_rejected(self):
        with pytest.raises(ValueError):
            language(Substitution.of({"1": "12", "2": "2"}), 2)

    def test_two_fixed_point_components(self):
        # Non-primitive union of two constant fixed words keeps both orbits.
        two = Substitution.of({"1": "11", "2": "22"})
        for n in range(1, 7):
            assert language(two, n) == ["1" * n, "2" * n]

    def test_explicit_window_blocks(self):
        win = ExplicitWindow("12", "121", 4)
        assert language(win, 2) == ["12", "21"]
        assert language(win, 4) == ["1212", "2121"]

    def test_explicit_window_alphabet(self):
        # letters from both parts, sorted: "3" occurs only left of index 0
        assert alphabet(ExplicitWindow("3", "12", 4)) == ("1", "2", "3")
        assert alphabet(ExplicitWindow("21", "", 2)) == ("1", "2")
        assert alphabet(ExplicitWindow("", "ba", 2)) == ("a", "b")

    def test_explicit_window_horizon_exhausted(self):
        win = ExplicitWindow("12", "121", 4)
        with pytest.raises(HorizonExhausted):
            language(win, 5)
        long_horizon = ExplicitWindow("12", "121", 99)
        with pytest.raises(HorizonExhausted):
            language(long_horizon, 6)

    def test_approximate_flag(self):
        assert approximate(ExplicitWindow("", "11", 2))
        assert not approximate(TM)
        assert not approximate(Periodic("1"))
        # a non-primitive rule's windows depend on the power that reads them
        assert approximate(Substitution.of(
            {"1": "312", "2": "1", "3": "32", "4": "2231"}))
        assert approximate(Substitution.of({"1": "12", "2": "2"}))
        for spec in (FIB, PD, TRIB, S4, DOUBLING, FOUR_CYCLE):
            assert not approximate(spec)


class TestIncidenceAndPrimitivity:
    def test_incidence_matrices(self):
        assert incidence_matrix(TM) == [[1, 1], [1, 1]]
        assert incidence_matrix(FIB) == [[1, 1], [1, 0]]

    def test_primitive_examples(self):
        assert is_primitive(TM)
        assert is_primitive(FIB)
        assert is_primitive(DOUBLING)
        assert is_primitive(FOUR_CYCLE)

    def test_non_primitive(self):
        assert not is_primitive(Substitution.of({"1": "12", "2": "22"}))
        # pure letter swap: no power of the matrix is positive
        assert not is_primitive(Substitution.of({"1": "2", "2": "1"}))

    def test_constant_length(self):
        assert constant_length(TM) == 2
        assert constant_length(FIB) is None
        assert constant_length(BIJ_PERIODIC) == 3
        # every column of the incidence matrix sums to s, so the Perron
        # eigenvalue of a constant-length rule is Fraction(s)
        rng = random.Random(11)
        rules = [TM, PD, S4, BIJ_PERIODIC, FOUR_CYCLE, DOUBLING]
        for _ in range(40):
            letters = "1234"[:rng.randint(1, 4)]
            s = rng.randint(1, 4)
            rules.append(Substitution.of({
                a: "".join(rng.choice(letters) for _ in range(s))
                for a in letters}))
        for spec in rules:
            lam = perron_eigenvalue(incidence_matrix(spec))
            assert isinstance(lam, Fraction)
            assert lam == constant_length(spec)


class TestCertificates:
    def test_periodic_spec(self):
        assert check_minimal_aperiodic(Periodic("121")) == {
            "minimal": True, "aperiodic": False}

    def test_thue_morse(self):
        assert check_minimal_aperiodic(TM) == {
            "minimal": True, "aperiodic": True}

    def test_single_letter(self):
        assert check_minimal_aperiodic(DOUBLING) == {
            "minimal": True, "aperiodic": False}

    def test_bijective_periodic_fixed_word(self):
        assert check_minimal_aperiodic(BIJ_PERIODIC) == {
            "minimal": True, "aperiodic": False}

    def test_non_bijective_periodic_detected(self):
        assert check_minimal_aperiodic(FOUR_CYCLE) == {
            "minimal": True, "aperiodic": False}

    def test_fibonacci_aperiodicity_unknown(self):
        res = check_minimal_aperiodic(FIB)
        assert res["minimal"] is True
        assert res["aperiodic"] == "unknown"

    def test_non_primitive_not_minimal(self):
        res = check_minimal_aperiodic(Substitution.of({"1": "12", "2": "22"}))
        assert res["minimal"] is False

    def test_explicit_window_unknown(self):
        res = check_minimal_aperiodic(ExplicitWindow("1", "2", 3))
        assert res == {"minimal": "unknown", "aperiodic": "unknown",
                       "approximate": True}

    def test_more_bijective_shifts(self):
        # columns are permutations and the fixed word is aperiodic
        for rules in ({"1": "12", "2": "23", "3": "31"},
                      {"1": "123", "2": "231", "3": "312"}):
            spec = Substitution.of(rules)
            res = check_minimal_aperiodic(spec)
            assert res["minimal"] is True
            assert res["aperiodic"] is True
            # aperiodicity implies strictly growing complexity
            assert len(language(spec, 4)) > len(language(spec, 3))

    def test_bijective_matches_fixed_word_search(self):
        named = [TM, S4, BIJ_PERIODIC, DOUBLING,
                 Substitution.of({"1": "12", "2": "23", "3": "31"}),
                 Substitution.of({"1": "123", "2": "231", "3": "312"})]
        rng = random.Random(23)
        specs = list(named)
        for _ in range(600):
            letters = "12345"[:rng.randint(2, 5)]
            cols = [rng.sample(letters, len(letters))
                    for _ in range(rng.randint(2, 4))]
            specs.append(Substitution.of({
                a: "".join(col[i] for col in cols)
                for i, a in enumerate(letters)}))
        verdicts = set()
        for spec in specs:
            res = check_minimal_aperiodic(spec)
            assert res["minimal"] is is_primitive(spec) \
                is is_primitive_matrix(incidence_matrix(spec))
            if res["minimal"]:
                assert res["aperiodic"] is fixed_word_aperiodic(spec), spec
                verdicts.add(res["aperiodic"])
        assert verdicts == {True, False}


def cyclic_count(word: str, u: str) -> Fraction:
    reps = word * (len(u) // len(word) + 2)
    hits = sum(reps[i:i + len(u)] == u for i in range(len(word)))
    return F(hits, len(word))


class TestPeriodicMeasures:
    def test_period_three_letter_weight(self):
        got = measure_vector(Periodic("112"), 1)["1"]
        assert isinstance(got, Fraction) and got == F(2, 3)

    def test_matches_cyclic_count_oracle(self):
        rng = random.Random(3)
        for word in ("112", "1212", "11212", "31"):
            spec = Periodic(word)
            for n in range(1, 6):
                for u in language(spec, n):
                    assert measure_vector(spec, n)[u] == cyclic_count(word, u)
                total = sum(measure_vector(spec, n).values())
                assert total == 1

    @pytest.mark.parametrize("spec", [
        Periodic("212"), Periodic("11212"), Periodic("aab"), TM, FIB,
    ], ids=["212", "11212", "aab", "tm", "fib"])
    def test_vector_in_language_order(self, spec):
        for n in range(1, 6):
            assert list(measure_vector(spec, n)) == language(spec, n)

    def test_word_not_in_language(self):
        # a word outside the language has no entry, not a zero one
        assert "22" not in measure_vector(Periodic("112"), 2)


class TestSubstitutionMeasures:
    def test_thue_morse_pair(self):
        got = measure_vector(TM, 2)["12"]
        assert isinstance(got, Fraction) and got == F(1, 3)

    def test_thue_morse_two_block_vector(self):
        vec = measure_vector(TM, 2)
        assert vec == {
            "11": F(1, 6), "12": F(1, 3), "21": F(1, 3), "22": F(1, 6)}

    def test_fibonacci_letter_measure(self):
        x = measure_vector(FIB, 1)["1"]
        assert isinstance(x, AlgebraicNumber)
        assert x * x + x - 1 == 0
        assert float(x) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_four_cycle_matches_periodic(self):
        # (1234)^inf presented two ways must agree measure-for-measure
        for n in (1, 2, 3):
            lhs = measure_vector(FOUR_CYCLE, n)
            rhs = measure_vector(Periodic("1234"), n)
            assert lhs == rhs

    def test_empirical_frequency_oracle(self):
        prefix = iterate_prefix(TM, 1 << 14)
        for u in language(TM, 3):
            emp = sum(prefix[i:i + 3] == u for i in range(len(prefix) - 2)) \
                / (len(prefix) - 2)
            assert float(measure_vector(TM, 3)[u]) == pytest.approx(emp, abs=2e-3)
        prefix = iterate_prefix(FIB, 1 << 14)
        for u in language(FIB, 2):
            emp = sum(prefix[i:i + 2] == u for i in range(len(prefix) - 1)) \
                / (len(prefix) - 1)
            assert float(measure_vector(FIB, 2)[u]) == pytest.approx(emp, abs=2e-3)

    def test_kolmogorov_consistency_exact(self):
        for spec in (TM, FIB, FOUR_CYCLE):
            letters = alphabet(spec)
            for n in (1, 2, 3):
                vec = measure_vector(spec, n)
                ext = measure_vector(spec, n + 1)
                for u, mu in vec.items():
                    assert sum(ext[u + a] for a in letters if u + a in ext) == mu
                    assert sum(ext[a + u] for a in letters if a + u in ext) == mu

    def test_total_mass_exact(self):
        for spec in (TM, FIB):
            for n in (1, 2, 3, 4):
                assert sum(measure_vector(spec, n).values()) == 1

    def test_positivity_certified(self):
        for spec in (TM, FIB):
            for v in measure_vector(spec, 3).values():
                if isinstance(v, Fraction):
                    assert 0 < v <= 1
                else:
                    assert v.sign() > 0
                    assert (v - 1).sign() <= 0

    def test_block_substitution_shape(self):
        blocks, sub = block_substitution(TM, 2)
        assert blocks == ["11", "12", "21", "22"]
        # image length equals the head letter's image length
        for u, imgs in sub.items():
            assert len(imgs) == 2
            assert all(len(w) == 2 and w in blocks for w in imgs)

    def test_explicit_window_unsupported(self):
        with pytest.raises(UnsupportedSpec):
            measure_vector(ExplicitWindow("1", "21", 3), 1)

    def test_non_primitive_unsupported(self):
        with pytest.raises(UnsupportedSpec):
            measure_vector(Substitution.of({"1": "12", "2": "22"}), 1)


class TestMeasureRecursion:
    """Measures pushed from the 2-blocks against the block-nullspace solve,
    and at n = 7 and 8, where that solve is slow, against the Perron
    certificate."""

    SPECS = [
        (TM, 12), (PD, 12), (FIB, 12), (TRIB, 12), (S4, 6),
    ] + [(spec, 8) for spec in substitution_corpus(2026, 40)]

    @pytest.mark.parametrize("spec,nmax", SPECS)
    def test_equals_nullspace_solution(self, spec, nmax):
        for n in range(1, nmax + 1):
            got = measure_vector(spec, n)
            assert list(got) == language(spec, n)
            if n in (7, 8):
                assert_perron_certificate(spec, n, list(got.values()))
            else:
                assert list(got.values()) == _nullspace_measure(spec, n), n

    @pytest.mark.parametrize("rules", [{"1": "1"}, {"1": "11"}])
    def test_one_letter_rules(self, rules):
        # {1: "1"} never grows, so no power of it reaches length n; its
        # one cylinder still carries all the mass
        spec = Substitution.of(rules)
        for n in range(1, 7):
            got = measure_vector(spec, n)
            assert got == {"1" * n: 1}
            assert type(got["1" * n]) is Fraction
            assert list(got.values()) == _nullspace_measure(spec, n)

    @pytest.mark.parametrize("spec", [TM, FIB, TRIB],
                             ids=["tm", "fib", "trib"])
    def test_one_nullspace_solve_per_spec(self, monkeypatch, spec):
        # one solve, on the 2-blocks, whatever lengths are asked for
        real, calls = subshift.nullspace_vector, []
        monkeypatch.setattr(subshift, "nullspace_vector",
                            lambda rows: calls.append(len(rows)) or real(rows))
        subshift._measures.cache_clear()
        subshift._language.cache_clear()
        for n in range(1, 13):
            measure_vector(spec, n)
        assert calls == [len(language(spec, 2))]

    @pytest.mark.parametrize("spec", [TM, Periodic("12"),
                                      ExplicitWindow("1", "2", 3)])
    def test_block_length_must_be_positive(self, spec):
        # a periodic word's orbit windows would give {"": 1} at n = 0
        for n in (0, -1):
            with pytest.raises(ValueError, match="block length"):
                measure_vector(spec, n)

    def test_callers_get_fresh_dicts(self):
        vec = measure_vector(TM, 3)
        vec.clear()
        assert len(measure_vector(TM, 3)) == len(language(TM, 3))


class TestPlainMeasures:
    """A measure is a plain number: a Fraction or an AlgebraicNumber."""

    def test_rational_measures(self):
        for spec in (TM, PD, S4, Periodic("112")):
            for n in (1, 2, 3):
                for v in measure_vector(spec, n).values():
                    assert isinstance(v, Fraction)
                    assert 0.0 < float(v) < 1.0
        assert measure_vector(TM, 2)["12"] == F(1, 3)
        assert float(measure_vector(TM, 2)["12"]) == pytest.approx(1 / 3)

    def test_algebraic_measures(self):
        for spec in (FIB, TRIB):
            for n in (1, 2, 3):
                for v in measure_vector(spec, n).values():
                    assert isinstance(v, AlgebraicNumber)
                    assert 0.0 < float(v) < 1.0
