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


@pytest.mark.parametrize("mangle", [
    lambda text: text.replace('"unit"', '"bimodules": [], "unit"'),
    lambda text: text.replace('"unit": [\n    "1",', '"unit": [\n    1' + "0" * 5000 + ","),
    lambda text: text.replace('"unit": [\n    "1",', '"unit": [\n    "1e10000000",'),
])
def test_validate_malformed_input_exits_2(capsys, tmp_path, mangle):
    text = serialize.dumps(zoo.get("dual_numbers"))
    p = tmp_path / "alg.json"
    p.write_text(mangle(text))
    assert p.read_text() != text
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "alg.json" in err


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


# sha256 of stdout, one tuple per zoo algebra in the order of
# GOLDEN_COMMANDS; the first four were frozen while Q scalars were still
# all Fractions, the rest while homology and cohomology had separate
# command functions
GOLDEN_COMMANDS = (
    ("homology", "{}", "--max-degree", "3", "--format", "json"),
    ("cohomology", "{}", "--max-degree", "3", "--format", "json"),
    ("cap", "{}", "1", "1"),
    ("verify", "{}", "--max-degree", "2", "--seed", "3", "--format", "json"),
    ("homology", "{}", "--max-degree", "3"),
    ("cohomology", "{}", "--max-degree", "3"),
    ("homology", "{}", "--module", "coinduced", "--max-degree", "3", "--format", "json"),
    ("homology", "{}", "--module", "induced", "--max-degree", "3", "--format", "json"),
    ("cohomology", "{}", "--module", "coinduced", "--max-degree", "3", "--format", "json"),
    ("cohomology", "{}", "--module", "induced", "--max-degree", "3", "--format", "json"),
)
GOLDEN = {
    "rationals": (
        "287fcee86187fbf6024491fd63053da0e73e10915a6e46b9ebe47c47d0913f50",
        "c0e318255a9330cc60eda5772ff4246f149817456731ed8f7bb894877c29d2fb",
        "6d2a6db97af352615d02c1db478247e83b1e53b6b375ad7eaf79e7bed2e2b251",
        "eaa2f3eacf638a7453094fbaaf4a0c1d6aa6315db214259b0053ff6e7f28ac01",
        "b9c30e32bd950e379b51a1829cd7f353a2ad1076455f1db8ef816a04d1da924e",
        "f5ecfabecb312995f484fa097fcbac3a72fd7d4810c553e7bf66dcffebbd03aa",
        "0a65476176a933d111d3d37f3823a56e9d50abf5a7b5bc74001c6c1d4ddeacf0",
        "c32f555810c17a8b690308cde884d1acc3b8d32736090481e5a34b77007c0d4e",
        "0abdafdb66f379104825d91b844f548228e7793914c62815e391dea368cc86a8",
        "61528992fee313ff77f39ee17eb8ec4a0663fb6379f0dd5c8ece6f0794b4e4f9",
    ),
    "dual_numbers": (
        "60d752819ebbcf5f4530428ccdc7057c8069c949fbe4f4616ca1cddb97e2ff61",
        "24b5b19fd114e293cbcdd9370f54d51ef2309682be84ddca135a5ff4ca4f03b9",
        "78f7a4037ab7552190ead2b684ba9f51f743f8b80380e6bf2855b6a32f9ef5f9",
        "48efd889cefbf028f80c8f9d4f8985e9c89911d0a916104c96beeb06a9eff7a6",
        "7e60f92f5bf8ad05feb0fab35e700d07c8825494572d845bbd5ec56377231000",
        "e8a067879e4a3a4d44e0be7ca5ac4d7f982a03b8092114d1972043ad63f2abdc",
        "d130489e928117e354d73a3313380ddeb2b233e9d9208b42955011277dbb59b2",
        "3afb3681434728e71a48bf471788a590f3fa982e784bc4874afc7d30a0d672a2",
        "f33f8e813f8a7a89224c4e32e3049b3c561def465c68ced4f49de4b9f30b3173",
        "01e318d5f095f6f47ba2babd48be67bd6ae3a519d0743efea7a68acff81c903e",
    ),
    "truncated_cubic": (
        "10fb51db0d08c519c81e27e1a54907d91358ff5cda346f7359f4cefb6c1f0142",
        "ed01fcf84ae4df7a09ccbe6068bbfbc3fdd7c197472f188c0922481c9b57cfc3",
        "dc5e11a239e06abc9c71d60030a94a345670059267f108ff7c42ee5e0b455f6e",
        "5d3e17f720f36dd22955d6f9551e8497b97d38160a517076d3e729d25049ab3c",
        "4237ccfcfb90e58b9a744e7ceedbd3e795317898d748c0be897b25092a7593e9",
        "dab48032e946abf40d73e6e697d9b0c406873458ab894dfc12523f96e812e9b5",
        "a26b2903eb2e4495d2acf886a901c6e692ec6ee8c55f2089567618a2099c5182",
        "a5e877852945878c17f95598a565dd6e974621c2b7b038e0833c4bc9ea094203",
        "955ee63116affd02d269c227a7e3b3352346cad143ef091280cb0fa1f8c3356d",
        "8392996a4801bb786e75067381404d6e1eb25371cc922ba38f18b8b8f3c2482d",
    ),
    "product_qq": (
        "8abecc361f07ce59bcb69a66d2a0a8a3b7f925737abf2a305d0aec67bfa675ff",
        "3b8217bfdcfd605bb5281f0991ae492647de5cecdc526acc1a59ce3d621c3ba4",
        "64b9f8db9b433d5011702a8adee8b7f239aca49b941a35d02cbc7ccd4fb87e30",
        "42f17ed1c4c84a3d754a024bf29f33180fe91bf334079fea8455fe163b4cccdb",
        "902cf5a1fd9238d466d1705b7223e95fe5f243df1c08f0696d34f7980390a878",
        "2c7f5b4e3b84d491554c003ed752a118833d397db7594d911e269ddede565551",
        "af8758ade7dc7cc87fa78bd7c371db58f5cc5889eb9e708ba012917057edb712",
        "482d3cb0baa2e06d079fce1501d059756793a527c4dba810695f55aebf0e8302",
        "76864cf031029d75c0fb2c7ad6f8f2486cc8a5af08eca0ed07baf91aa69df98c",
        "505fe25206840295748895acf4030c6f87d0599d9f48d11b02d07839e1cb41f9",
    ),
    "two_by_two_matrices": (
        "b0e4e7893fb5a21d9bf466a77202835746eaa0eb3f2f4f15e2af77d17d43d84e",
        "6f3d5c4f9fa592ee727163a7249900d2fab79c596e91946a7c53c614ab8887a8",
        "d15022c72ab3046352d77f3e3156261f18d656182306170d0ee3d8c9329a9254",
        "ec992abf698e0fff83ef451d04e5d33d6e5cea6f3251fb5a77e8dafda9290c08",
        "83b3e44338a21e973b136f81c97caccbc46e2412a33fcfe4061d863e1a9d8ab8",
        "42da58b78d84189d4257ba05ecaeaf787937834f249d933fbc5c735244e2648c",
        "52b350cfeb5c791d230efc5694620167c3436c7c4ddcdbba6bdc9625b5b5547e",
        "a263919afb556b13ceb212c94abc99ba8c041ba5ff4df37aebb6751f399dde4a",
        "381c66009644289cb0438120982430ed2825d72046ef8c9ff69139c409cfe574",
        "beb7d8b89da2dee54bd870be2cf110c17d7b984be96f25583ca5f791b74be503",
    ),
    "upper_triangular": (
        "d1e5d321f0eeba2dbe63aeb6fb04841fbada1fdcc41f528105f59a4815915c35",
        "29c941cd54ef7c5af1fc0a7d852fd7befa4feef08c7f39cbb6d9ab282433cfb0",
        "b97dbed98e254bd926ce413892087418bafd16898d68accfb5e98de56658ee7e",
        "f3f01946e3313f172f3aff4e30acf3d1338856b2c27a48c7b1b96f1a98d8917e",
        "4468aba778e53724bbe1a4b58ff965563668a2996acf59a36a9a59313643d4d1",
        "900c68363f40d3734ff2ab3ec2d6394b0b0974f090a601785c73e66b865ac07e",
        "ff3dc7757ed5e46e2f3d4593cc91e2793bac917d24903f1ad5f9b0a26bfcbf11",
        "ba023ae243f3068ee698f50138434c6472accb721a5e33d5c25d8b70b47fe2fc",
        "7a2345e4024d3b30b12d048c9891903b204182c11b8e9dfe68f5a00fe3a05c9a",
        "cc7fd050ba63548ff7f180250b3ccc347e9d8470cc6d009a6828828b254d6193",
    ),
    "f2_c2": (
        "73522cab784c06323062e1aeab1e6bffe3e246094561cc38f41aadbfc04842e6",
        "9e0297ce4c904d44bc01dd69f4ea86f4ce692e371ec2e1cb4e2c8ec94960a215",
        "1ff365b9a85ef05cdca808fb8e7c8ec69076fa431365851e62cb3b77faa0597a",
        "69b288da9bcb4674b13ed2dcc403f5e64ddf91c5109477570cfdee0c36ebfe72",
        "6d6857e862e3b1e90167b55fc3495494a65d560f08ba77073390569485790e84",
        "f644b05efc0308af8c52e29d7ec2a013bd40d87a7eb682b04220758fb9eec2c3",
        "e71f0555be8e0225ec2812818adb046bda9044183b2466675927292d5ed8004b",
        "a3577e12f99e6227ee55f8e28b752395af174b288540d31979fcbc32f12f7223",
        "d89fa468b1fee517de1f33c8f81516e89898cd465e1cfd8dea1e6b7b2ac9413b",
        "6faf13ec2f2ea0ef66c61f13c786e88e5f493c0e5e89a689e68273dd02918fee",
    ),
}


def test_stdout_matches_golden_digests(capsys):
    assert list(GOLDEN) == list(zoo.ZOO)
    for name, digests in GOLDEN.items():
        assert len(digests) == len(GOLDEN_COMMANDS)
        for cmd, want in zip(GOLDEN_COMMANDS, digests):
            argv = [a.format(name) for a in cmd]
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv
