"""Frozen outputs of every map that acts on the module slot of a (co)chain.

The chain-level cap product, the maps a coefficient sequence induces on
classes (pushforwards and connecting maps, seeded and unseeded) and the
action of the center are each hashed here, entry by entry, with values
written by `fld.format`, so an `int` and the equal integral `Fraction`
hash alike.  The digests were computed from the implementation that
regrouped every (co)chain by basis tuple, so a change of how the module
slot is reached cannot change a single coordinate.
"""

import hashlib
import random

import pytest

from hochcap import zoo
from hochcap.bimodules import coinduced, induced, tensor_over_algebra
from hochcap.cap import cap_chain
from hochcap.complexes import (
    chain_dim,
    central_action,
    class_space,
    cochain_dim,
)
from hochcap.les import connecting, pushforward

ALGEBRAS = ("dual_numbers", "truncated_cubic", "upper_triangular", "f2_c2")
KINDS = ("homology", "cohomology")


def _vec_entries(fld, vec):
    return sorted((k, fld.format(v)) for k, v in vec.items())


def _mat_entries(mat):
    return (mat.nrows, mat.ncols, [_vec_entries(mat.field, c) for c in mat.cols])


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def _random_vec(rng, fld, dim, k=5):
    out = {}
    for _ in range(k):
        v = fld.coerce(rng.randint(-3, 3))
        if v:
            out[rng.randrange(dim)] = v
    return out


TARGETS = ("regular", "coinduced (x) regular", "regular (x) coinduced")


def _cap_target(name, target):
    """(N, M, tens): the regular target collapsed through N (x)_A A = N,
    or a realized tensor product with the coinduced module on one side."""
    reg = zoo.get(name).regular()
    if target == "regular":
        return reg, reg, None
    co = coinduced(reg).module
    N, M = (co, reg) if target == "coinduced (x) regular" else (reg, co)
    return N, M, tensor_over_algebra(N, M)


CAP_DIGESTS = {
    ("rationals", "regular"): "c3fa8c779590b9e1df2a37b364bf1f4a2bfcdab5bba8100c2e5afedf9a3dac72",
    ("dual_numbers", "regular"): "46be302bee19806fa27a69254b93f53d4d9ffb4568b7b551319d92f1eede50c9",
    ("dual_numbers", "coinduced (x) regular"): "d3358b04f5c3b6ff62fd2a8eb29b74f96469c5b1c1b1cdc9bd03c30ad4b29a56",
    ("dual_numbers", "regular (x) coinduced"): "5d451b8bb986dd510f405a51f3b657c4059903a54b0aa6a38658f17e17915706",
    ("truncated_cubic", "regular"): "6283fcef8c812b61c117e59e943eb098c96353fc21ee389957bc879b719b368e",
    ("truncated_cubic", "coinduced (x) regular"): "f86dff81b90977ee703cdf92a8a86284c0189acc42ac86fd2c9f568b51821f22",
    ("truncated_cubic", "regular (x) coinduced"): "92a0dc5828b474604c05439b2f8ab1ab5b5a903ba0183162e10a2a6c7fabfb65",
    ("product_qq", "regular"): "03832f5f1f87a97f5f1ab7777217d325f913c45a372a7a0653a988a07b6558b3",
    ("two_by_two_matrices", "regular"): "d7e6142beecf6235a8705add8cfed97d593d7d228d278c490a8e955c70795ae7",
    ("upper_triangular", "regular"): "fca8100cd71fb99b36492ddba5aacc21798ab0dbbf29e490e846cf66eca72afb",
    ("upper_triangular", "coinduced (x) regular"): "4422a7195ec464a622f2b5256879f5241afc8159f147894ca245e778675a8bf8",
    ("upper_triangular", "regular (x) coinduced"): "0ddaa49cdae6f9849d84f9dfd28f10bc239960a65c212928c9f536a0895df9c3",
    ("f2_c2", "regular"): "dfbb2eac47b56dce26ed67256b0ade74ca8e87f6409afbc2c987c37222e30c25",
    ("f2_c2", "coinduced (x) regular"): "4711827b90a78201c5dc874f5b2d300fc0ef9497ade19967700d7f299fcbeb4b",
    ("f2_c2", "regular (x) coinduced"): "7445dea2ace577bd2c1aaa304fde05fd8fd2851f61b14d0d93ea2fd478320b1e",
}


def _cap_items(name, target):
    N, M, tens = _cap_target(name, target)
    fld = N.field
    rng = random.Random(f"cap/{name}/{target}")
    for n in range(4):
        for m in range(n + 1):
            for _ in range(3):
                xi = _random_vec(rng, fld, chain_dim(N, n))
                T = _random_vec(rng, fld, cochain_dim(M, m))
                yield n, m, _vec_entries(fld, cap_chain(N, n, xi, M, m, T, tens))


CAP_CASES = [(name, target) for name in zoo.ZOO for target in TARGETS
             if target == "regular" or name in ALGEBRAS]


@pytest.mark.parametrize("name,target", CAP_CASES)
def test_cap_chain_is_frozen(name, target):
    assert _digest(_cap_items(name, target)) == CAP_DIGESTS[name, target]


def _sequences(name):
    reg = zoo.get(name).regular()
    yield "induced", induced(reg).ses
    yield "coinduced", coinduced(reg).ses


def _les_items(name):
    for label, ses in _sequences(name):
        for kind in KINDS:
            for n in range(3):
                yield label, kind, "f", n, _mat_entries(pushforward(ses.f, n, kind))
                yield label, kind, "g", n, _mat_entries(pushforward(ses.g, n, kind))
            lowest = 1 if kind == "homology" else 0
            for n in range(lowest, 3):
                for seed in (None, 5):
                    yield label, kind, seed, n, _mat_entries(connecting(ses, n, kind, seed))


LES_DIGESTS = {
    "dual_numbers": "eee22bd8ee4c1cfb866bab535e67920f1597683bbaab30a51140d23445c6e8ac",
    "truncated_cubic": "4c440ae808e4efef1df11b8deb29baeed3a79d5cfc1d3effec17591b97c187c6",
    "upper_triangular": "d7e9053c8eea4cfb27eb4801bef7a3bf9bd98720f46d892dbc395299274b28a4",
    "f2_c2": "d680fe763d8541adf91e7bc37bb2fb100d614775d6551837ab19b0b0e2c4bac1",
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_pushforward_and_connecting_are_frozen(name):
    assert _digest(_les_items(name)) == LES_DIGESTS[name]


def _central_items(name):
    A = zoo.get(name)
    fld = A.field
    center = A.center()
    mixed = {}
    for c, z in zip((2, -1, 3), center):
        for i, v in z.items():
            mixed[i] = fld.add(mixed.get(i, fld.zero), fld.mul(fld.coerce(c), v))
    reg = A.regular()
    for label, M in (("regular", reg), ("induced", induced(reg).module),
                     ("coinduced", coinduced(reg).module)):
        for kind in KINDS:
            for n in range(3):
                cs = class_space(M, n, kind)
                for z in center + [mixed]:
                    yield label, kind, n, _mat_entries(central_action(cs, z))


CENTRAL_DIGESTS = {
    "dual_numbers": "30650ad05271b2bcda774afd93bb4594c36d7f704d52b38cd082be54e2eeefa8",
    "truncated_cubic": "7616bb39dd72f8c5d214d0499165cf3702f08afea01cedcf8d71115f91e0a0b2",
    "upper_triangular": "b0559677cd50626942a1f794d9565d75b354b65f2d27eee25118c07f0de75d88",
    "f2_c2": "b5de24bd2221acf72a8ceeaa4175c80a5850b4d5d5806e7795c77ace8e2f8c2e",
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_central_action_is_frozen(name):
    assert _digest(_central_items(name)) == CENTRAL_DIGESTS[name]
