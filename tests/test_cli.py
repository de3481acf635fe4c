"""End-to-end runs of the command line interface via main()."""

import hashlib
import json

import pytest

from hochcap import axioms, config, serialize, zoo
from hochcap.bimodules import Bimodule
from hochcap.cli import main
from hochcap.complexes import homology_dims
from hochcap.linalg import SparseMat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    for name in zoo.ZOO:
        assert name in out


def test_zoo_list_json(capsys):
    code, payload, _ = run_json(capsys, "zoo", "list")
    assert code == 0
    assert [row["name"] for row in payload["algebras"]] == list(zoo.ZOO)
    assert all(row["description"] for row in payload["algebras"])


def test_zoo_show_text(capsys):
    code, out, _ = run(capsys, "zoo", "show", "two_by_two_matrices")
    assert code == 0
    assert "dimension  4" in out and "center     dim 1" in out


def test_zoo_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "zoo", "show", "f2_c2", "--format", "json")
    assert code == 0
    B, _ = serialize.loads(out)
    A = zoo.get("f2_c2")
    assert (B.field, B.basis, B.unit, B.mult) == (A.field, A.basis, A.unit, A.mult)


def test_zoo_show_unknown(capsys):
    code, _, err = run(capsys, "zoo", "show", "nope")
    assert code == 2 and "nope" in err


def test_homology_text(capsys):
    code, out, _ = run(capsys, "homology", "dual_numbers")
    assert code == 0
    for n in range(5):
        assert f"H_{n}  dim 1" in out or f"H_{n}  dim 2" in out
    assert "H_0  dim 2" in out


def test_homology_json(capsys):
    code, payload, _ = run_json(capsys, "homology", "dual_numbers")
    assert code == 0
    assert payload["homology"] == [2, 1, 1, 1, 1]
    assert payload["module"] == "regular"


def test_cohomology_coinduced_vanishes(capsys):
    code, payload, _ = run_json(
        capsys, "cohomology", "truncated_cubic", "--module", "coinduced",
        "--max-degree", "3",
    )
    assert code == 0
    assert payload["cohomology"][1:] == [0, 0, 0]


def test_homology_induced_vanishes(capsys):
    code, payload, _ = run_json(
        capsys, "homology", "dual_numbers", "--module", "induced",
        "--max-degree", "3",
    )
    assert code == 0
    assert payload["homology"][1:] == [0, 0, 0]


def test_module_from_file(capsys, tmp_path):
    A = zoo.get("dual_numbers")
    fld = A.field
    ident = SparseMat.identity(1, fld)
    zero = SparseMat.zero(1, 1, fld)
    S = Bimodule(A, 1, (ident, zero), (ident, zero), label="torsion").validate()
    p = tmp_path / "dual.json"
    p.write_text(serialize.dumps(A, bimodules={"torsion": S}))
    code, payload, _ = run_json(
        capsys, "homology", str(p), "--module", "torsion", "--max-degree", "2",
    )
    assert code == 0
    assert payload["homology"] == homology_dims(S, 2)


def test_unknown_module(capsys):
    code, _, err = run(capsys, "homology", "dual_numbers", "--module", "bogus")
    assert code == 2
    assert "bogus" in err and "regular" in err


def test_unknown_algebra(capsys):
    code, _, err = run(capsys, "homology", "no_such_algebra")
    assert code == 2 and "zoo list" in err


def test_cap_dual_numbers_degree_one(capsys):
    # the only H_1 x H^1 product lands on the class of the nilpotent
    code, payload, _ = run_json(capsys, "cap", "dual_numbers", "1", "1")
    assert code == 0
    assert payload["chain_classes"] == 1 and payload["cochain_classes"] == 1
    assert payload["target_classes"] == 2
    assert payload["products"] == [[["0", "1"]]]


def test_cap_text_output(capsys):
    code, out, _ = run(capsys, "cap", "dual_numbers", "1", "1")
    assert code == 0
    assert "h[0] cap c[0] = (0, 1)" in out


def test_cap_bad_degrees(capsys):
    code, _, err = run(capsys, "cap", "dual_numbers", "0", "1")
    assert code == 2 and err.startswith("error:")


def test_validate_file(capsys, tmp_path):
    p = tmp_path / "alg.json"
    p.write_text(serialize.dumps(zoo.get("product_qq")))
    code, payload, _ = run_json(capsys, "validate", str(p))
    assert code == 0
    assert payload["ok"] is True and payload["dimension"] == 2
    assert payload["bimodules"] == []


def test_validate_rejects_garbage(capsys, tmp_path):
    p = tmp_path / "alg.json"
    p.write_text("{]")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "alg.json" in err


def test_verify_clean(capsys):
    code, payload, _ = run_json(capsys, "verify", "dual_numbers", "--max-degree", "1")
    assert code == 0
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["skip"] == 2
    assert all(set(r) == {"check", "instance", "degrees", "status", "detail"}
               for r in payload["results"])


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(axioms, "HOMOLOGY_SIGN_OFFSET", 1)
    code, payload, _ = run_json(capsys, "verify", "dual_numbers", "--max-degree", "2")
    assert code == 1
    assert payload["summary"]["fail"] > 0


def test_verify_check_subset(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "product_qq", "--checks", "center-linearity",
        "--max-degree", "2",
    )
    assert code == 0
    assert payload["results"]
    assert {r["check"] for r in payload["results"]} == {"center-linearity"}


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "dual_numbers", "--checks", "bogus")
    assert code == 2 and "bogus" in err


def test_verify_json_is_deterministic(capsys):
    argv = ("verify", "f2_c2", "--max-degree", "2", "--seed", "7", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_memory_cap_trips_and_restores(capsys):
    before = config.max_coordinates()
    code, _, err = run(
        capsys, "--memory-cap", "10", "homology", "two_by_two_matrices",
    )
    assert code == 3
    assert "refusing to allocate" in err
    assert config.max_coordinates() == before


def test_memory_cap_must_be_positive(capsys):
    code, _, err = run(capsys, "--memory-cap", "-1", "homology", "dual_numbers")
    assert code == 2 and "positive" in err


def test_text_is_default_format(capsys):
    code, out, _ = run(capsys, "homology", "rationals", "--max-degree", "1")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


# sha256 of stdout, frozen while Q scalars were still all Fractions,
# one tuple per zoo algebra in the order of GOLDEN_COMMANDS
GOLDEN_COMMANDS = (
    ("homology", "{}", "--max-degree", "3", "--format", "json"),
    ("cohomology", "{}", "--max-degree", "3", "--format", "json"),
    ("cap", "{}", "1", "1"),
    ("verify", "{}", "--max-degree", "2", "--seed", "3", "--format", "json"),
)
GOLDEN = {
    "rationals": (
        "287fcee86187fbf6024491fd63053da0e73e10915a6e46b9ebe47c47d0913f50",
        "c0e318255a9330cc60eda5772ff4246f149817456731ed8f7bb894877c29d2fb",
        "6d2a6db97af352615d02c1db478247e83b1e53b6b375ad7eaf79e7bed2e2b251",
        "eaa2f3eacf638a7453094fbaaf4a0c1d6aa6315db214259b0053ff6e7f28ac01",
    ),
    "dual_numbers": (
        "60d752819ebbcf5f4530428ccdc7057c8069c949fbe4f4616ca1cddb97e2ff61",
        "24b5b19fd114e293cbcdd9370f54d51ef2309682be84ddca135a5ff4ca4f03b9",
        "78f7a4037ab7552190ead2b684ba9f51f743f8b80380e6bf2855b6a32f9ef5f9",
        "48efd889cefbf028f80c8f9d4f8985e9c89911d0a916104c96beeb06a9eff7a6",
    ),
    "truncated_cubic": (
        "10fb51db0d08c519c81e27e1a54907d91358ff5cda346f7359f4cefb6c1f0142",
        "ed01fcf84ae4df7a09ccbe6068bbfbc3fdd7c197472f188c0922481c9b57cfc3",
        "dc5e11a239e06abc9c71d60030a94a345670059267f108ff7c42ee5e0b455f6e",
        "5d3e17f720f36dd22955d6f9551e8497b97d38160a517076d3e729d25049ab3c",
    ),
    "product_qq": (
        "8abecc361f07ce59bcb69a66d2a0a8a3b7f925737abf2a305d0aec67bfa675ff",
        "3b8217bfdcfd605bb5281f0991ae492647de5cecdc526acc1a59ce3d621c3ba4",
        "64b9f8db9b433d5011702a8adee8b7f239aca49b941a35d02cbc7ccd4fb87e30",
        "42f17ed1c4c84a3d754a024bf29f33180fe91bf334079fea8455fe163b4cccdb",
    ),
    "two_by_two_matrices": (
        "b0e4e7893fb5a21d9bf466a77202835746eaa0eb3f2f4f15e2af77d17d43d84e",
        "6f3d5c4f9fa592ee727163a7249900d2fab79c596e91946a7c53c614ab8887a8",
        "d15022c72ab3046352d77f3e3156261f18d656182306170d0ee3d8c9329a9254",
        "ec992abf698e0fff83ef451d04e5d33d6e5cea6f3251fb5a77e8dafda9290c08",
    ),
    "upper_triangular": (
        "d1e5d321f0eeba2dbe63aeb6fb04841fbada1fdcc41f528105f59a4815915c35",
        "29c941cd54ef7c5af1fc0a7d852fd7befa4feef08c7f39cbb6d9ab282433cfb0",
        "b97dbed98e254bd926ce413892087418bafd16898d68accfb5e98de56658ee7e",
        "f3f01946e3313f172f3aff4e30acf3d1338856b2c27a48c7b1b96f1a98d8917e",
    ),
    "f2_c2": (
        "73522cab784c06323062e1aeab1e6bffe3e246094561cc38f41aadbfc04842e6",
        "9e0297ce4c904d44bc01dd69f4ea86f4ce692e371ec2e1cb4e2c8ec94960a215",
        "1ff365b9a85ef05cdca808fb8e7c8ec69076fa431365851e62cb3b77faa0597a",
        "69b288da9bcb4674b13ed2dcc403f5e64ddf91c5109477570cfdee0c36ebfe72",
    ),
}


def test_stdout_matches_golden_digests(capsys):
    assert list(GOLDEN) == list(zoo.ZOO)
    for name, digests in GOLDEN.items():
        for cmd, want in zip(GOLDEN_COMMANDS, digests):
            argv = [a.format(name) for a in cmd]
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv
