"""The one dense-entry budget, at the edge of each entry point that checks it.

Every refusal past `dform.MAX_DENSE_ENTRIES` works out a cost first: the
tensor header's array, the `form` and `bianchi` generators' arrays and
work, an (r, pq) cofactor's chain, the metric scalars' two chains, a
metric contraction's result, the metric Jacobi identities' chain of G, and the Pfaffian,
embedding and hyperdeterminant chains and gathers.  Each `ref_*` below
writes one of those formulas out again, so that a change to a formula or
to the limit moves an edge and fails here.  For each, the test finds the
last size the formula accepts and runs the entry point there and one size
past it.  Nothing large is built: the first step after each check is
stubbed to raise `Accepted`.
"""

import json
from math import comb, prod

import pytest

from dfalg import dform, fixtures, invariants, pfaffian, scalars
from dfalg.cli import main
from dfalg.dform import DoubleForm
from dfalg.exterior import ExteriorForm, MultiForm
from dfalg.multiindex import MAX_DIM
from dfalg.tensorio import tensor_from_doc

LIMIT = 1 << 24


class Accepted(Exception):
    """Raised by a stub in place of the first allocation after a check."""


def accept(*args, **kwargs):
    raise Accepted


def accepted(call):
    """True if call gets past its check, False if the check refuses it."""
    try:
        call()
    except Accepted:
        return True
    except ValueError as exc:
        assert "dense entries" in str(exc), exc
        return False
    raise AssertionError("the call neither reached its stub nor was refused")


def last_accepted(ref, lo, hi):
    """The largest size in [lo, hi) whose ref cost is within the limit; ref
    grows with the size, accepts lo and refuses hi."""
    assert ref(lo) <= LIMIT < ref(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ref(mid) <= LIMIT else (lo, mid)
    return lo


def assert_edge(ref, lo, hi, call):
    edge = last_accepted(ref, lo, hi)
    assert accepted(lambda: call(edge)), edge
    assert not accepted(lambda: call(edge + 1)), edge + 1
    return edge


def test_the_limit_is_2_to_the_24():
    assert dform.MAX_DENSE_ENTRIES == LIMIT


def test_bilinear_and_constant_curvature_fit_under_the_limit_at_max_dim():
    # why `generate` checks only the dimension for these kinds
    assert MAX_DIM ** 2 <= LIMIT and comb(MAX_DIM, 2) ** 2 <= LIMIT


# -- tensor headers -----------------------------------------------------------

def ref_tensor(n, degs):
    return prod(comb(n, d) for d in degs)


HEADERS = [
    # (kind, degree fields, slot degrees, (lo, hi) in n)
    ("double_form", {"p": 3, "q": 3}, (3, 3), (3, 40)),
    ("double_form", {"p": 2, "q": 5}, (2, 5), (5, 40)),
    ("form", {"k": 8}, (8,), (8, 40)),
    ("multiform", {"k": 1, "r": 5}, (1,) * 5, (1, 40)),
    ("multiform", {"k": 2, "r": 3}, (2,) * 3, (2, 40)),
]


@pytest.mark.parametrize("kind,fields,degs,span", HEADERS)
def test_tensor_header_edge(monkeypatch, kind, fields, degs, span):
    monkeypatch.setattr(scalars, "zeros", accept)
    assert_edge(lambda n: ref_tensor(n, degs), *span,
                lambda n: tensor_from_doc({"n": n, "kind": kind, **fields, "entries": []}))


# -- generate ------------------------------------------------------------------

def ref_generate_form(n, k):
    return comb(n, max(k, 0))


def ref_generate_bianchi(n, p, terms):
    return comb(n, max(min(p, n // 2), 0)) ** 2 * max(terms, 1) * max(p, 1)


def run_main(capsys, *args):
    code = main(list(map(str, args)))
    err = capsys.readouterr().err
    if code == 2:
        raise ValueError(err)
    raise AssertionError(f"{args[0]} exited {code}: {err}")


@pytest.fixture
def no_draws(monkeypatch):
    monkeypatch.setattr(fixtures, "SplitMix64", accept)


@pytest.mark.parametrize("k,expected", [(8, 33), (10, 28)])
def test_generate_form_edge(no_draws, capsys, k, expected):
    edge = assert_edge(lambda n: ref_generate_form(n, k), k, MAX_DIM,
                       lambda n: run_main(capsys, "generate", "--kind", "form", "--n", n,
                                          "--k", k))
    assert edge == expected


def test_generate_bianchi_edge_in_terms(no_draws, capsys):
    # n = 4, p = 2: C(4, 2)^2 p = 72 entries of work per term
    edge = assert_edge(lambda t: ref_generate_bianchi(4, 2, t), 1, LIMIT,
                       lambda t: run_main(capsys, "generate", "--kind", "bianchi", "--n", 4,
                                          "--p", 2, "--terms", t))
    assert edge == LIMIT // 72


@pytest.mark.parametrize("p,terms", [(2, 8), (3, 2), (5, 1)])
def test_generate_bianchi_edge_in_n(no_draws, capsys, p, terms):
    assert_edge(lambda n: ref_generate_bianchi(n, p, terms), p, MAX_DIM,
                lambda n: run_main(capsys, "generate", "--kind", "bianchi", "--n", n,
                                   "--p", p, "--terms", terms))


def test_generate_bianchi_work_message(no_draws):
    with pytest.raises(ValueError, match="terms and wedges"):
        fixtures.random_bianchi(4, 2, LIMIT // 72 + 1, 0)


# -- h_rpq ---------------------------------------------------------------------

def ref_h_rpq(n, p, q, r, path):
    degs = [j * p for j in range(1, q + 1)] + [r]
    if path == "contraction":
        degs += range(min(p * q, r) + 1)
    return max(comb(n, d) for d in degs) ** 2


@pytest.fixture
def no_chains(monkeypatch):
    # the first step of each path: the star path's power g^m w^q, and the
    # contraction series, which starts from a zero (r, r) accumulator
    for name in ("metric_wedge_power", "_contraction_series"):
        monkeypatch.setattr(invariants, name, accept)


COFACTORS = [
    # (p, q, r, path)
    (1, 6, 0, "hodge"),
    (1, 3, 2, "hodge"),
    (2, 2, 2, "contraction"),
    (2, 1, 3, "contraction"),
]


@pytest.mark.parametrize("p,q,r,path", COFACTORS)
def test_h_rpq_edge(no_chains, p, q, r, path):
    def call(n):
        invariants.h_rpq(DoubleForm.zeros(n, p, p), r, p, q, path)
    assert_edge(lambda n: ref_h_rpq(n, p, q, r, path), p * q + r, 40, call)


def test_s_k_edge_in_n(no_chains):
    # s_n builds the whole chain h, ..., h^n: C(14, 7)^2 fits, C(15, 7)^2 not
    edge = assert_edge(lambda n: ref_h_rpq(n, 1, n, 0, "hodge"), 1, 20,
                       lambda n: invariants.s_k(DoubleForm.zeros(n, 1, 1), n))
    assert edge == 14


# -- metric scalars and the metric Jacobi identities ---------------------------

def ref_metric_scalar(n, p, k):
    # the chains w, ..., w^k and G^-1, ..., (G^-1)^(pk) of the pairing
    # <w^k, (G^-1)^(pk)>; the second holds every degree of the first
    return max(ref_h_rpq(n, p, k, 0, "hodge"), ref_h_rpq(n, 1, p * k, 0, "hodge"))


@pytest.mark.parametrize("p,k,expected", [(1, 3, 30), (1, 6, 14), (2, 2, 19)])
def test_metric_scalar_edge(monkeypatch, p, k, expected):
    monkeypatch.setattr(invariants, "wedge_power", accept)
    scalar = invariants.s_k_metric if p == 1 else invariants.h_2k_metric
    edge = assert_edge(lambda n: ref_metric_scalar(n, p, k), p * k, 40,
                       lambda n: scalar(DoubleForm.zeros(n, p, p), dform.metric(n), k))
    assert edge == expected


def test_metric_scalars_cover_the_metric_jacobi_domain(monkeypatch):
    # s_k_metric and h_2k_metric are the second side of metric Jacobi
    # (test_invariants): every (n, p, k) the identity accepts, they accept
    cases = []
    for n in range(2, 17):
        h0, R0 = fixtures.random_bilinear(n, 1), fixtures.random_bianchi(n, 2, 1, 2)
        g, w = dform.metric(n), fixtures.random_bilinear(n, 3, "symmetric")
        cases += [(invariants.jacobi_with_metric, invariants.s_k_metric, h0, g, w, k)
                  for k in range(1, n + 1)]
        cases += [(invariants.jacobi_double_form_with_metric, invariants.h_2k_metric,
                   R0, g, w, k) for k in range(1, (n - 1) // 2 + 1)]
    # s_1 builds no wedge: its first step after the checks is the pairing
    monkeypatch.setattr(dform, "_wedge", accept)
    monkeypatch.setattr(invariants, "inner", accept)
    domain = 0
    for jacobi, scalar, w0, g, w, k in cases:
        if accepted(lambda: jacobi(w0, w0, g, w, k)):
            domain += 1
            assert accepted(lambda: scalar(w0, g, k)), (jacobi.__name__, w0.n, k)
    assert domain == sum(n + (n - 1) // 2 for n in range(2, 15))  # every order to n = 14


def ref_contract_with_metric(n, p, q):
    # the (p - 1, q - 1) result; the wedge that makes it is chunked
    return comb(n, max(p - 1, 0)) * comb(n, max(q - 1, 0))


def test_contract_with_metric_edge(monkeypatch):
    # a (n, n - 3) form has C(n, 3) entries and its contraction n C(n, 4):
    # the first refusal is at n = 54, with an input of 24804 entries
    monkeypatch.setattr(dform, "_invert_metric", accept)

    def call(n):
        dform.contract_with_metric(DoubleForm.zeros(n, n, n - 3), dform.metric(n))

    edge = assert_edge(lambda n: ref_contract_with_metric(n, n, n - 3), 4, MAX_DIM, call)
    assert edge == 53


def ref_metric_jacobi(n, p, k):
    # the chain G, ..., G^m of the samples, m = n - pk
    return max(comb(n, d) for d in range(n - p * k + 1)) ** 2


@pytest.mark.parametrize("p", [1, 2])
def test_metric_jacobi_edge_in_n(monkeypatch, p):
    # at k = 1 the chain is checked before the right side's first wedge:
    # jacobi_with_metric at n = 15 is refused with no wedge run
    fn = invariants.jacobi_with_metric if p == 1 \
        else invariants.jacobi_double_form_with_metric

    def call(n):
        w0 = fixtures.random_bilinear(n, 7) if p == 1 else fixtures.random_bianchi(n, 2, 1, 7)
        w = fixtures.random_bilinear(n, 8, "symmetric")
        with monkeypatch.context() as m:
            m.setattr(dform, "_wedge", accept)
            fn(w0, w0, dform.metric(n), w, 1)

    assert assert_edge(lambda n: ref_metric_jacobi(n, p, 1), p + 1, 20, call) == 14


@pytest.mark.parametrize("n", [14, 15])
def test_metric_jacobi_runs_every_order_to_n_14(monkeypatch, n):
    h0, R0 = fixtures.random_bilinear(n, 1), fixtures.random_bianchi(n, 2, 1, 2)
    g, w = dform.metric(n), fixtures.random_bilinear(n, 3, "symmetric")
    monkeypatch.setattr(dform, "_wedge", accept)
    for k in range(1, n + 1):
        assert accepted(lambda: invariants.jacobi_with_metric(h0, h0, g, w, k)) \
            == (n <= 14), k
    for k in range(1, (n - 1) // 2 + 1):
        assert accepted(lambda: invariants.jacobi_double_form_with_metric(R0, R0, g, w, k)) \
            == (n <= 14), k


# -- pf, embed, hyperdet ----------------------------------------------------------

def ref_chain(n, degs, steps):
    need = 0
    for j in range(1, steps + 1):
        need = max(need, prod(comb(n, j * d) for d in degs))
        if j > 1:
            need = max(need, prod(comb(n, (j - 1) * d) * comb(n - (j - 1) * d, d)
                                  for d in degs))
    return need


@pytest.fixture
def no_pf_chains(monkeypatch):
    for name in ("wedge_form_power", "wedge_multi_power", "merge_table"):
        monkeypatch.setattr(pfaffian, name, accept)


@pytest.mark.parametrize("d", [2, 4])
def test_pf_edge(no_pf_chains, d):
    # n = d q, over the number q of factors
    assert_edge(lambda q: ref_chain(d * q, (d,), q), 1, MAX_DIM // d,
                lambda q: pfaffian.pf(ExteriorForm.zeros(d * q, d)))


@pytest.mark.parametrize("k,r", [(2, 4), (1, 8), (3, 3)])
def test_embed_edge(no_pf_chains, k, r):
    assert_edge(lambda n: ref_chain(n, (k,) * r, 1), k * r, MAX_DIM,
                lambda n: pfaffian.embed(ExteriorForm.zeros(n, k * r), r))


@pytest.mark.parametrize("k,r", [(1, 2), (1, 3), (2, 2)])
def test_hyperdet_edge(no_pf_chains, k, r):
    # n = k p, over the number p of factors
    assert_edge(lambda p: ref_chain(k * p, (k,) * r, p), 1, MAX_DIM // k,
                lambda p: pfaffian.hyperdet(MultiForm.zeros(k * p, k, r)))


def test_skew_file_edge(no_pf_chains, capsys, tmp_path):
    # `dfalg pfaffian` on a skew (1, 1) file at n = 2q: the determinant is
    # one elimination, so pf's own chain check decides
    def call(q):
        path = tmp_path / f"skew{2 * q}.json"
        path.write_text(json.dumps({"n": 2 * q, "kind": "double_form", "p": 1, "q": 1,
                                    "entries": []}))
        run_main(capsys, "pfaffian", path)

    edge = assert_edge(lambda q: ref_chain(2 * q, (2,), q), 1, MAX_DIM // 2, call)
    assert 2 * edge == 20


def test_pf_squared_keeps_its_chain_check_past_degree_2(monkeypatch):
    # a 4-form at n = 16: pf's chain and the embedding fit, but the (2, 2)
    # chain of h_(0,16) reaches w^3, a (6, 6) form with C(16, 6)^2 entries
    for name in ("wedge_power", "hodge"):
        monkeypatch.setattr(pfaffian, name, accept)
    monkeypatch.setattr(pfaffian, "pf", lambda form: 0)
    assert ref_chain(16, (2, 2), 4) > LIMIT
    with pytest.raises(ValueError, match="dense entries"):
        pfaffian.check_pf_squared(ExteriorForm.zeros(16, 4), 2)
