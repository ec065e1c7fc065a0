import json
import os
import threading
from fractions import Fraction

import pytest
from helpers import ORDERED_REFERENCE

import severi.node_polys as node_polys
from severi.integrand import P2_FIXED
from severi.node_polys import (
    CACHE_VERSION,
    NodePolynomialRecord,
    load,
    node_polynomial,
    node_polynomial_cached,
    store,
    valid_degrees,
)
from severi.oracles import goettsche_p2_check
from severi.unipoly import UniPoly


def test_valid_degrees_start():
    assert valid_degrees(0, "p3", 3) == [1, 2, 3]
    assert valid_degrees(2, "p3", 3) == [3, 4, 5]
    # the fixed-plane window needs more incidence conditions, so d = 1 drops
    assert valid_degrees(0, P2_FIXED, 3) == [2, 3, 4]


def test_valid_degrees_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        valid_degrees(1, "p4", 3)


def test_delta0_polynomial_matches_reference():
    rec = node_polynomial(0)
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[0]
    assert rec.polynomial.degree() == 9


def test_delta0_polynomial_from_eleven_samples():
    # interpolating eleven consecutive counts reproduces the degree-9
    # reference polynomial directly
    from severi.localization import count_nodal
    from severi.unipoly import lagrange_interpolate

    samples = [(d, count_nodal(0, d)) for d in range(1, 12)]
    assert lagrange_interpolate(samples) == ORDERED_REFERENCE[0]


def test_delta1_value():
    rec = node_polynomial(1)
    assert rec.polynomial(2) == 140
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[1]


def test_p2_one_node_polynomial():
    rec = node_polynomial(1, P2_FIXED)
    assert rec.polynomial == UniPoly([3, -6, 3])


def test_store_load_roundtrip(tmp_path):
    rec = node_polynomial(0)
    store(rec, str(tmp_path))
    back = load(0, "p3", str(tmp_path))
    assert back is not None
    assert back.polynomial == rec.polynomial
    assert back.sample_ds == rec.sample_ds


def test_verified_request_recomputes_an_unverified_record(tmp_path):
    unverified = node_polynomial_cached(0, cache_dir=str(tmp_path))
    assert not unverified.verified
    assert load(0, "p3", str(tmp_path)) == unverified
    rec = node_polynomial_cached(0, cache_dir=str(tmp_path), verify=True)
    assert rec.verified and rec != unverified
    assert load(0, "p3", str(tmp_path)) == rec


def test_unverified_request_accepts_a_verified_record(tmp_path):
    rec = node_polynomial_cached(0, cache_dir=str(tmp_path), verify=True)
    assert rec.verified
    assert node_polynomial_cached(0, cache_dir=str(tmp_path)) == rec


def test_fixed_plane_log_coefficients_are_quadratic_in_d():
    # Goettsche's conjecture (proved by Tzeng and by Kool-Shende-Thomas): the
    # x^k coefficient of log(1 + sum_delta N_delta(d) x^delta) is linear in
    # L^2, L.K, K^2 and c_2, so of degree at most 2 in d on the plane
    top = 4
    u = [UniPoly.zero()]
    u += [node_polynomial(delta, P2_FIXED).polynomial for delta in range(1, top + 1)]
    assert [p.degree() for p in u[1:]] == [2 * delta for delta in range(1, top + 1)]
    log = [UniPoly.zero()] * (top + 1)
    power = [UniPoly([1])] + [UniPoly.zero()] * top  # u^0
    for m in range(1, top + 1):
        power = [
            sum((power[a] * u[k - a] for a in range(k + 1)), UniPoly.zero())
            for k in range(top + 1)
        ]
        log = [acc + p.scaled(Fraction((-1) ** (m + 1), m)) for acc, p in zip(log, power)]
    assert [p.degree() for p in log[1:]] == [2] * top


def test_fixed_plane_polynomials_meet_goettsches_divisor_sum_series():
    # the d^2 part of log sum_k T_k(d) x^k at x = DG2(q) is 1/2 log(DG2/q)
    # up to q^6; one changed coefficient of T_5 breaks it, though at q^5
    # alone a change of its d^0 or d^1 coefficient does not show
    polys = [node_polynomial(delta, P2_FIXED).polynomial for delta in range(7)]
    for top in range(7):
        assert goettsche_p2_check(polys[: top + 1]), top
    for power in range(len(polys[5].coeffs)):
        coeffs = list(polys[5].coeffs)
        coeffs[power] += 1
        changed = polys[:5] + [UniPoly(coeffs)] + polys[6:]
        assert not goettsche_p2_check(changed), power
        assert goettsche_p2_check(changed[:6]) == (power < 2), power


def test_load_version_mismatch(tmp_path):
    rec = node_polynomial(0)
    path = store(rec, str(tmp_path))
    with open(path) as fh:
        payload = json.load(fh)
    payload["cache_version"] = "something-else"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load(0, "p3", str(tmp_path)) is None


def test_load_corrupt_cache(tmp_path):
    path = tmp_path / "node-poly-p3-delta0.json"
    path.write_text('{"cache_version": "' + CACHE_VERSION + '", "delta": 0, "mode": "p3"')
    assert load(0, "p3", str(tmp_path)) is None


def test_load_a_cache_file_that_is_not_an_object(tmp_path):
    (tmp_path / "node-poly-p3-delta0.json").write_text("[]")
    assert load(0, "p3", str(tmp_path)) is None


def small_record(delta=0, mode="p3"):
    return NodePolynomialRecord(
        delta=delta, mode=mode, polynomial=UniPoly([1]), sample_ds=(1,), check_ds=(2,), seed=0
    )


@pytest.mark.parametrize("delta, mode", [(1, "p3"), (0, P2_FIXED)])
def test_load_a_file_whose_record_disagrees_with_its_name(tmp_path, delta, mode):
    path = store(small_record(), str(tmp_path))
    assert load(0, "p3", str(tmp_path)) is not None
    os.replace(path, tmp_path / f"node-poly-{mode}-delta{delta}.json")
    assert load(delta, mode, str(tmp_path)) is None


@pytest.mark.parametrize(
    "name, value",
    [
        ("polynomial", "12"),  # a string, which would be read one character at a time
        ("polynomial", ["1", "1/0"]),
        ("polynomial", [1, 2]),
        ("sample_ds", []),
        ("sample_ds", ["1"]),
        ("check_ds", []),
        ("seed", "0"),
        ("verified", "no"),
        ("created_at", "yesterday"),
        ("created_at", None),
        ("created_at", [1]),
        ("created_at", True),
        ("created_at", float("nan")),
        ("created_at", float("inf")),
        ("delta", True),  # equal to 1, the record's delta
    ],
)
def test_load_a_record_with_a_malformed_field_is_a_miss(tmp_path, name, value):
    path = store(small_record(delta=1), str(tmp_path))
    assert load(1, "p3", str(tmp_path)) is not None
    with open(path) as fh:
        payload = json.load(fh)
    payload[name] = value
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load(1, "p3", str(tmp_path)) is None


def test_store_leaves_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def failing(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(node_polys.os, "replace", failing)
    with pytest.raises(OSError, match="rename refused"):
        store(small_record(), str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cached_recomputes_on_corruption(tmp_path):
    path = tmp_path / "node-poly-p3-delta0.json"
    path.write_text("not json at all")
    rec = node_polynomial_cached(0, cache_dir=str(tmp_path))
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[0]
    assert load(0, "p3", str(tmp_path)) is not None


def test_concurrent_store_single_winner(tmp_path):
    # atomic rename: concurrent writers never leave a torn file behind
    rec = node_polynomial(0)
    other = NodePolynomialRecord(
        delta=0,
        mode="p3",
        polynomial=rec.polynomial,
        sample_ds=rec.sample_ds,
        check_ds=rec.check_ds,
        seed=99,
    )
    threads = [
        threading.Thread(target=store, args=(r, str(tmp_path)))
        for r in (rec, other) * 8
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    back = load(0, "p3", str(tmp_path))
    assert back is not None and back.polynomial == rec.polynomial
    assert back.seed in (rec.seed, 99)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


def test_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SEVERI_CACHE_DIR", str(tmp_path))
    from severi.node_polys import default_cache_dir

    assert default_cache_dir() == str(tmp_path)


@pytest.mark.parametrize("delta", [0, 1])
def test_extra_sample_stability_is_enforced(delta):
    from severi.localization import count_nodal

    rec = node_polynomial(delta)
    assert len(rec.check_ds) == 2
    assert len(rec.sample_ds) == 10 + 2 * delta
    for d in rec.check_ds:
        assert rec.polynomial(d) == count_nodal(delta, d)


@pytest.mark.parametrize("extra", [-2, -1], ids=["first", "second"])
def test_extra_sample_mismatch_fails(monkeypatch, extra):
    # the certifying samples come from the same batched call as the others
    nodal_counts = node_polys.nodal_counts

    def extra_count_off_by_one(*args, **kwargs):
        counts = nodal_counts(*args, **kwargs)
        values = list(counts.values)
        values[extra] += 1
        return counts._replace(values=tuple(values))

    monkeypatch.setattr(node_polys, "nodal_counts", extra_count_off_by_one)
    with pytest.raises(ArithmeticError, match="extra sample"):
        node_polynomial(1)


def test_counts_one_degree_past_the_bound_fail(monkeypatch):
    # counts of degree exactly 10 + 2*delta disagree with the interpolant of
    # the first 10 + 2*delta samples at both extra samples
    nodal_counts = node_polys.nodal_counts

    def one_degree_too_high(delta, ds, *args, **kwargs):
        counts = nodal_counts(delta, ds, *args, **kwargs)
        values = [v + d ** (10 + 2 * delta) for v, d in zip(counts.values, ds)]
        return counts._replace(values=tuple(values))

    monkeypatch.setattr(node_polys, "nodal_counts", one_degree_too_high)
    with pytest.raises(ArithmeticError, match="extra sample"):
        node_polynomial(1)


@pytest.mark.parametrize("delta", [1, 2])
def test_fixed_plane_counts_past_the_degree_bound_fail(monkeypatch, delta):
    # a d^(2*delta + 1) term stays well inside the sampling window, so only
    # the fixed-plane bound 2*delta catches it
    nodal_counts = node_polys.nodal_counts

    def one_degree_past_the_bound(delta, ds, *args, **kwargs):
        counts = nodal_counts(delta, ds, *args, **kwargs)
        values = [v + d ** (2 * delta + 1) for v, d in zip(counts.values, ds)]
        return counts._replace(values=tuple(values))

    monkeypatch.setattr(node_polys, "nodal_counts", one_degree_past_the_bound)
    with pytest.raises(ArithmeticError, match=f"above the bound {2 * delta}"):
        node_polynomial(delta, P2_FIXED)


def test_pooled_polynomial_equals_serial():
    serial = node_polynomial(3, verify=True)
    pooled = node_polynomial(3, verify=True, jobs=2)
    assert serial.ordered_polynomial() == ORDERED_REFERENCE[3]
    assert pooled.polynomial == serial.polynomial
    assert (pooled.sample_ds, pooled.check_ds) == (serial.sample_ds, serial.check_ds)
