"""Target-zero subset sum by both methods, plus the experiment."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfree.families import gen_family
from jumpfree.intsets import GammaTriple, IntMultiset
from jumpfree.subsetsum import (
    EXHAUSTIVE_MAX_TOTAL,
    METHODS,
    CapacityError,
    SubsetCertificate,
    run_corollary_experiment,
    solve_subset_sum,
)
from oracles import is_valid_certificate, literal_dp_certificate

multisets = st.lists(st.integers(min_value=-9, max_value=9), max_size=10).map(
    IntMultiset.from_values
)


def test_certificate_validation():
    cert = SubsetCertificate(chosen=((-2, 1), (-1, 1), (3, 1)), sum=0)
    assert is_valid_certificate(cert, IntMultiset.from_values([3, -1, -2]))
    # Insufficient multiplicity in the source multiset.
    assert not is_valid_certificate(cert, IntMultiset.from_values([3, -1]))
    with pytest.raises(ValueError):
        SubsetCertificate(chosen=(), sum=0)
    with pytest.raises(ValueError):
        SubsetCertificate(chosen=((3, 0),), sum=0)
    with pytest.raises(ValueError):
        SubsetCertificate(chosen=((3, 1),), sum=0)


def test_certificate_json():
    cert = SubsetCertificate(chosen=((0, 1),), sum=0)
    assert cert.to_json_dict() == {"chosen": [[0, 1]], "sum": 0}


@pytest.mark.parametrize("method", METHODS)
def test_solve_pinned_examples(method):
    solvable = IntMultiset.from_values([3, -1, -2])
    cert = solve_subset_sum(solvable, method)
    assert cert is not None
    assert is_valid_certificate(cert, solvable)
    assert cert.chosen == ((-2, 1), (-1, 1), (3, 1))

    assert solve_subset_sum(IntMultiset.from_values([1, 2]), method) is None
    assert solve_subset_sum(IntMultiset(), method) is None

    with_zero = IntMultiset.from_values([0, 7])
    cert = solve_subset_sum(with_zero, method)
    assert cert is not None
    assert cert.chosen == ((0, 1),)


def test_solve_rejects_unknown_method():
    with pytest.raises(ValueError):
        solve_subset_sum(IntMultiset(), "bogus")


def test_exhaustive_capacity_guard():
    big = IntMultiset.from_pairs([[1, EXHAUSTIVE_MAX_TOTAL + 1]])
    with pytest.raises(CapacityError):
        solve_subset_sum(big, "exhaustive")


def test_dp_capacity_guard():
    # One item over 2^28 + 1 sums: over the bits budget before any allocation.
    heavy = IntMultiset.from_pairs([[2**28, 1]])
    with pytest.raises(CapacityError, match="bits"):
        solve_subset_sum(heavy, "dp")


def test_dp_zero_shortcut_skips_weight_guard():
    # The zero element answers before the bits guard would refuse 2^28.
    ms = IntMultiset.from_pairs([[2**28, 1], [0, 1]])
    cert = solve_subset_sum(ms, "dp")
    assert cert is not None
    assert cert.chosen == ((0, 1),)


def test_dp_bits_guard_trips_before_allocation():
    # 40,000 items over 40,001 sums: about 1.6e9 bits of prefixes.
    wide = IntMultiset.from_pairs([[1, 20000], [-1, 20000]])
    with pytest.raises(CapacityError, match="bits"):
        solve_subset_sum(wide, "dp")


@given(multisets)
@settings(max_examples=300)
def test_methods_agree_and_certify(ms):
    oracle = solve_subset_sum(ms, "exhaustive")
    cert = solve_subset_sum(ms, "dp")
    assert (cert is None) == (oracle is None)
    if cert is not None:
        assert is_valid_certificate(cert, ms)


@given(
    st.one_of(
        st.dictionaries(st.integers(-200, 200), st.integers(1, 3), max_size=12),
        st.dictionaries(st.integers(1, 200), st.integers(1, 3), max_size=12),
    ).map(lambda counts: IntMultiset.from_pairs(counts.items()))
)
@settings(max_examples=300)
def test_dp_certificate_matches_literal_table(ms):
    assert solve_subset_sum(ms, "dp") == literal_dp_certificate(ms)


@given(multisets)
@settings(max_examples=200)
def test_negation_preserves_solvability(ms):
    direct = solve_subset_sum(ms, "dp") is not None
    mirrored = solve_subset_sum(IntMultiset.from_pairs((-v, m) for v, m in ms.items()), "dp")
    assert direct == (mirrored is not None)


def _family_on_square(values_by_point):
    from jumpfree.predicates import Family, FiniteFunction

    f = FiniteFunction(id="w", k=2, entries=dict(values_by_point))
    return Family(k=2, members=(f,))


def test_experiment_pinned_unsolvable_instance():
    dom = tuple(itertools.product((2, 5), repeat=2))
    fam = gen_family("max", [dom])
    report = run_corollary_experiment(fam, 2, method="exhaustive")
    assert report["outcome"] == "ok"
    assert report["f_multiset"] == IntMultiset.from_values([-1, 3, 3, 3]).to_json()
    assert report["fh_equal"] is True
    assert report["solvable_F"] is False
    assert report["solvable_H"] is False
    assert report["agreement"] is True
    assert report["cardinality_ok"] is True
    assert report["certificate_F"] is None
    assert set(report["timings_ms"]) == {"solve_F", "solve_H"}


def test_experiment_solvable_instance():
    dom = tuple(itertools.product((0, 1), repeat=2))
    fam = gen_family("max", [dom])
    report = run_corollary_experiment(fam, 2)
    assert report["outcome"] == "ok"
    assert report["solvable_F"] is True
    assert report["certificate_F"]["chosen"] == [[0, 1]]
    assert report["agreement"] is True


def test_experiment_no_witness_outcome():
    # A domain with no 2-cube cannot produce a witness.
    fam = _family_on_square({(0, 1): 1})
    report = run_corollary_experiment(fam, 2)
    assert report["outcome"] == "no_witness"
    assert report["witness"] is None
    assert report["fh_equal"] is None
    assert report["agreement"] is None


def test_experiment_equal_multisets_force_agreement():
    # Whenever the two multisets coincide the two decisions cannot differ.
    for kind in ("max", "min"):
        for p in (2, 3):
            doms = [tuple(itertools.product(tuple(range(1, p + 1)), repeat=2))]
            report = run_corollary_experiment(gen_family(kind, doms), p)
            if report["outcome"] == "ok" and report["fh_equal"]:
                assert report["agreement"] is True


def test_experiment_respects_gamma_choice():
    dom = tuple(itertools.product((2, 5), repeat=2))
    fam = gen_family("max", [dom])
    report = run_corollary_experiment(fam, 2, gammas=GammaTriple.parse("zigzag,zigzag,shifted:1"))
    # Encoded top-interval values shift by one: {0, 4, 4, 4}, which is
    # solvable through the zero alone.
    assert report["f_multiset"] == IntMultiset.from_values([0, 4, 4, 4]).to_json()
    assert report["solvable_F"] is True
    assert report["agreement"] is True


def test_experiment_json_shape():
    dom = tuple(itertools.product((2, 5), repeat=2))
    fam = gen_family("max", [dom])
    data = run_corollary_experiment(fam, 2)
    for key in (
        "outcome",
        "method",
        "p",
        "witness",
        "fh_equal",
        "solvable_F",
        "solvable_H",
        "agreement",
        "cardinality_ok",
        "f_multiset",
        "h_multiset",
        "certificate_F",
        "certificate_H",
        "timings_ms",
    ):
        assert key in data
    assert data["witness"]["functionId"] == "max-000"
    assert data["f_multiset"] == [[-1, 1], [3, 3]]


def test_experiment_rejects_small_p():
    fam = _family_on_square({(0, 0): 0})
    with pytest.raises(ValueError):
        run_corollary_experiment(fam, 1)
