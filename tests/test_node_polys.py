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
from severi.unipoly import UniPoly


def test_valid_degrees_start():
    assert valid_degrees(0, "p3", 3) == [1, 2, 3]
    assert valid_degrees(2, "p3", 3) == [3, 4, 5]
    # the fixed-plane window needs more incidence conditions, so d = 1 drops
    assert valid_degrees(0, P2_FIXED, 3) == [2, 3, 4]


def test_delta0_polynomial_matches_reference():
    rec = node_polynomial(0)
    assert rec.ordered_polynomial() == ORDERED_REFERENCE[0]
    assert rec.polynomial.degree() == 9
    assert rec.degree_bound_checked


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
        degree_bound_checked=True,
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
    rec = node_polynomial(delta)
    for d in rec.check_ds:
        assert rec.polynomial(d) == rec.polynomial(d)  # trivially, but:
    # the record only exists because the in-op extra-sample check passed
    assert len(rec.check_ds) == 2
    assert len(rec.sample_ds) == 10 + 2 * delta


def test_extra_sample_mismatch_fails(monkeypatch):
    # the certifying samples come from the same batched call as the others
    nodal_counts = node_polys.nodal_counts

    def last_count_off_by_one(*args, **kwargs):
        counts = nodal_counts(*args, **kwargs)
        return counts._replace(values=counts.values[:-1] + (counts.values[-1] + 1,))

    monkeypatch.setattr(node_polys, "nodal_counts", last_count_off_by_one)
    with pytest.raises(ArithmeticError, match="extra sample"):
        node_polynomial(1)


def test_pooled_polynomial_equals_serial():
    serial = node_polynomial(3, verify=True)
    pooled = node_polynomial(3, verify=True, jobs=2)
    assert serial.ordered_polynomial() == ORDERED_REFERENCE[3]
    assert pooled.polynomial == serial.polynomial
    assert (pooled.sample_ds, pooled.check_ds) == (serial.sample_ds, serial.check_ds)
