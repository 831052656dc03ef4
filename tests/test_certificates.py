"""Every cross-check of ``Analysis.classification`` fires, and so do the
certificate checks of ``ramification_data`` and ``irregularity``.  Each test
replaces one real result upstream of its check, by ``dataclasses.replace``
of a record, a shifted value or a changed lattice or vector, so that the
checks before it still pass; ``classify`` then exits 2 with that check's
message and prints nothing."""

import dataclasses
import importlib

import pytest

from fqav.cli import main
from fqav.linalg import Lattice

from conftest import FIXTURE_DIR

# the module whose ``Analysis`` reads these functions by name
classify = importlib.import_module("fqav.classify")


def with_fano_rank_2(result):
    """The decomposition with a rank-2 Q-Fano part, so not Q-abelian."""
    fano = dataclasses.replace(result.fano_part, embedding=((1, 0, 0, 0), (0, 1, 0, 0)))
    return dataclasses.replace(result, fano_part=fano)


def abelian_dim(dim):
    return lambda result: dataclasses.replace(result, total_abelian_dim=dim)


# kummer: quasietale, n = q_circle = 2, q_x = 0, kappa 0.  sign-rot4: not
# quasietale, n = 2, q_circle = 1, q_x = 0, kappa 1, not Q-Fano
CROSS_CHECKS = [
    pytest.param("kummer", "decompose", abelian_dim(1),
                 "quasietale flag disagrees with the abelian factor dim", id="quasietale-dim"),
    pytest.param("kummer", "decompose", with_fano_rank_2,
                 "quasietale flag disagrees with the decomposition", id="quasietale-fano"),
    pytest.param("sign-rot4", "decompose", abelian_dim(0),
                 "Q-Fano flag disagrees with the abelian factor dim", id="q-fano-dim"),
    pytest.param("sign-rot4", "decompose", abelian_dim(3),
                 "abelian factor dimension out of range", id="dim-range"),
    pytest.param("kummer", "irregularity", lambda q_x: q_x + 3,
                 "irregularity exceeds the abelian factor dim", id="irregularity"),
    pytest.param("sign-rot4", "ramification_data",
                 lambda data: dataclasses.replace(data, intersection_dim=2),
                 "kappa inconsistent with the abelian factor dim", id="kappa"),
    # sign-rot4 has ramification divisors; doubling the image of each basis
    # vector makes each image lattice index 4 in a component's
    pytest.param("sign-rot4", "mat_vec", lambda v: [2 * x for x in v],
                 "orbit leaves the component set", id="orbit"),
    # bielliptic: q(X) = 1, so its holonomy fixed lattice has rank 2
    pytest.param("bielliptic", "fixed_lattice",
                 lambda lat: Lattice.from_vectors(lat.ambient_rank, lat.basis[:1]),
                 "holonomy fixed space has odd rational dimension", id="odd-fixed-space"),
]


@pytest.mark.parametrize("fixture, name, change, message", CROSS_CHECKS)
def test_cross_check_fires(fixture, name, change, message, monkeypatch, capsys):
    original = getattr(classify, name)
    monkeypatch.setattr(classify, name, lambda *args: change(original(*args)))
    assert main(["classify", str(FIXTURE_DIR / f"{fixture}.json")]) == 2
    assert capsys.readouterr() == ("", f"certificate failure: {message}\n")
