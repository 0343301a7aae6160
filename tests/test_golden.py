"""Golden outputs: `sonsim run --strategy both` at seed 9 must keep writing
byte-identical files.

The static replay digests were captured before the relevance kernel was
shared by the oracle and both routers, the refresh digests before the
knowledge indices kept their own training instances (the period-7 digests
before a refresh re-induced only the subtrees its new records reach), the
forwarding-depth digests before the routing counters were summed from the
cost tree. A change
that alters outputs on purpose re-pins them here, and says why.
"""

import hashlib

import pytest

from sonsim.cli import main

GOLDEN = {
    (300, 10): {
        "config.txt": "90bb22b7f074543cc0ede67bbdcbc35538aaa96ab21bab5917baa0b934f9f23c",
        "group0.arff": "f63c921cc6701c0c9777c0cc798a79ffcbd0e5b2747e5d0ad8f8ceb9eda5ef3d",
        "group0.tree.txt": "fec79f3845807dff912d6b64a4ef687fd22cb7738e477eb2eeab27c3196cedbc",
        "ksp_log.tsv": "ce86feb0d046cf5ca6637166a90811ce7a71a04c60639e0be1b0e0f62c2803ae",
        "metrics.csv": "2a57ea9a1ca7d729cabb1bb162ea4196868d6fa793534f0942f24e74239c70d9",
        "network.txt": "d1ede9b0f56010f506d370a6642c4676a8179ac4c4e09786c69268ef2c07af08",
        "summary.csv": "cabb3eda6e9d9872ae4e909f98dd4261f95fc4a8bcb25bb32e811eb80b0ac0f4",
        "train_log.tsv": "14d80aefa30e4651d70b2f6544651fb8eccaf34a1e7c769b03107a82d8155a6f",
    },
    (1000, 20): {
        "config.txt": "cb2d88826a166d2d12c5d7c7b460efea899ddc480a6f375ed419d4960615ee6b",
        "group0.arff": "4b36c52cb2e17d5b00af0b041440a626de31a29f42d21c71edd5c7fc8121fdb2",
        "group0.tree.txt": "aa110379108969a356e014838b0d213d40ea191c74a90eac197fc0dbecc74ddc",
        "ksp_log.tsv": "1791115fb87e6893ba68243e4aebfbdddc47defc4f509318d2e24910ed7ec16d",
        "metrics.csv": "ec6d75b497c11541295b0766ef2a3ed962f7aace222dce582092471208310bbc",
        "network.txt": "5f4c9f821d3954d2ad12b496e1e1fa5509238cb819a15094a7547991a762d18b",
        "summary.csv": "1939f07a3b5d94146bf64cbafa65a70b4603942296836554169d87606c37d42d",
        "train_log.tsv": "0630590666c0652f9edae2ccade63bf9d31b1d7aa1bab916ff0084f379220356",
    },
}


# Runs that refresh the indices while routing: the benchmark's refresh-300
# workload (the same digests as its seed-9 entry in benchmark/digests.json),
# a period of 7 that does not divide the epoch at min_leaf 1, and a
# fresh-mode run whose trust threshold forms seven groups.
REFRESH_GOLDEN = {
    "refresh-300": (
        ["--np", "300", "--nsp", "10", "--refresh-every", "20"],
        {
            "config.txt": "dc8651199c15665029830845cfcfe699e0c82973cc3b73664420bef2aef54200",
            "group0.arff": "67a1f1248ef576a6b5e693c27655a7979749f76f2ca8ec19a899a3874426e0b4",
            "group0.tree.txt": "a84437db79b2e23e463ee7d5dc422efdff25a8f88c6f096204510873ec05343d",
            "ksp_log.tsv": "ce86feb0d046cf5ca6637166a90811ce7a71a04c60639e0be1b0e0f62c2803ae",
            "metrics.csv": "42686c3ac428e7b799397a97f920705ca406bad6830095201a279f1444fdc4b4",
            "network.txt": "77561e1ce41eba6cac2e85f35270dad9d98a109d657fcd6808ce607aa7fcddbc",
            "summary.csv": "aecced0058182a5c1343e423859687a193b25087fff3012a5d14d94be578601f",
            "train_log.tsv": "14d80aefa30e4651d70b2f6544651fb8eccaf34a1e7c769b03107a82d8155a6f",
        },
    ),
    "refresh-300-every-7-leaf-1": (
        ["--np", "300", "--nsp", "10", "--tau-trust", "3", "--refresh-every", "7",
         "--min-leaf", "1"],
        {
            "config.txt": "0e56ae21181c0581a63af75ba7506eaa4d47332065dcac295aa7f66599a1b195",
            "group0.arff": "4ec11977a57f87a8d244929a71f0f914ad6e3097d6ceffd14ea0efc40b52e125",
            "group0.tree.txt": "e972c9799e951f76616738d074e045705207053c66642aa53e68e1ede6f74812",
            "ksp_log.tsv": "ce86feb0d046cf5ca6637166a90811ce7a71a04c60639e0be1b0e0f62c2803ae",
            "metrics.csv": "d93ea35139fe02b9b6076c4043a7a115821236d0d921fa44aa8899d874b13d85",
            "network.txt": "f0513b90c0406443c2636adec9a45ea1fc3994fff6f0a34b52609f314feb2f17",
            "summary.csv": "2789b95b19d79ebb6c74080a8a994c4fdb32353930c86248f38a5f6c6a87d4d5",
            "train_log.tsv": "14d80aefa30e4651d70b2f6544651fb8eccaf34a1e7c769b03107a82d8155a6f",
        },
    ),
    "groups-300-fresh": (
        ["--np", "300", "--nsp", "10", "--tau-trust", "4", "--workload-mode", "fresh",
         "--refresh-every", "50"],
        {
            "config.txt": "1fba37d059a3d0a5d86f4320f919bf8144c6eed71c5c5c153d8c2b12b2f57d26",
            "group0.arff": "8702eccde70e5d96b53397fc3ff8e78e51507d0c3fbefba477b1e1961d4c1d63",
            "group0.tree.txt": "96e2e59aa57bc58bd3dbb8c9d7aebf377b1ed0aebb522708d68df47615e8963c",
            "group1.arff": "c828f7b40d0c1b9d22309a5baab76cda51f7fedf3b920520264689f27f4a7864",
            "group1.tree.txt": "12eb78d9f4e0aa5f4500faa755716bcdd0be98ecc80fa3494dfad3fe137ca22c",
            "group2.arff": "d3794dd2a13bf1ab966eb608f6761639a6b0b6e3faaaf29250899391d44e6286",
            "group2.tree.txt": "4c7bcc30bdb19f0ec5452fefee6ac39a0b556b3d4f1cf0ae7234d4583a2606af",
            "group3.arff": "e3ed820536ba8ee33779e1ca718ba811bf70615dd1cd9dc3b6aac28edadb791a",
            "group3.tree.txt": "c72ffdba92a8993f1e17ae3b0a8e2745186853245deb3fb21e1201065b96bc1b",
            "group4.arff": "2b46366163ddcf0b644a6e6a3446ff81bd0a72d0bc571b46e63dd0027cc2d9fa",
            "group4.tree.txt": "08de201e8f7801f3bec4fbf8fa627102d28f77eeeca918e6198c811dbdf4174d",
            "group5.arff": "f13d164236a360511fd6d3c9533a5747aa030578477cf7d24f6a908807d4be01",
            "group5.tree.txt": "ba526fdf3c884af3fe7367343f8703aa6fd973fc8f9bbb4925cfa6c0def900c8",
            "group6.arff": "88163f52f242e6c0f3a860b9695f08597b8516c195c28c661b60783505d24447",
            "group6.tree.txt": "24efdd1cf4753d60ce8fe35013fed43a1d9ae9c25d85ac54108bb6252581c380",
            "ksp_log.tsv": "83d0314130479b88d4d85d5827f9c0f7f1a7bc7cff4e5c75071199d1f8947816",
            "metrics.csv": "91049327fefd4db128929d8f9da93d9fc31faf5d4fcfbe75e1a87ae5f85a6f6d",
            "network.txt": "e51d6638bf1c09a8beb454cf2016b422f3296ce09aa380c19cac16b719e7c687",
            "summary.csv": "a25cb775c5a21e25d02ebc94f023b90c5052a8a1edbf43bd063c56d7827470ac",
            "train_log.tsv": "14d80aefa30e4651d70b2f6544651fb8eccaf34a1e7c769b03107a82d8155a6f",
        },
    ),
}


# Forwarding depths other than the default one hop: a flood, whose trees run
# deeper than one hop, and local-only search, whose trees have no branch.
HOPS_GOLDEN = {
    -1: {
        "config.txt": "8e11866aa3ca3d8e2edfdad14bdbcb42078df34c37287b1d8afa77ca25013424",
        "group0.arff": "0e9787e3b3bc004dc39cbc715d6bd0fd7415889039c493fd312e3344992df55c",
        "group0.tree.txt": "f9b242e19361de15668a86945a01900cce975c86d89e730d9683e2947597faa2",
        "ksp_log.tsv": "e43ddb08b853d1823f86a4a6d19e3ec1d2c8c2e23af87184a43b2cca3b6bee32",
        "metrics.csv": "75f825dd80f98cb3efc473687cf5680e5eecddbec28f2c058a5973fa638a8d48",
        "network.txt": "24db7f126f5d2984e9255758872249840e7d09b2f5d675dcc3ab21d161aadd4c",
        "summary.csv": "1d2de78d104b665dc5e12ee811e2a0f018b57f14990317a68d14aab86735faef",
        "train_log.tsv": "7cb9f4819293c7d0b6a5d08ab08b613ec2ff8838c6c849271e146b6d1fd86743",
    },
    0: {
        "config.txt": "4a58229a15545208ec5a5f53e07be8b0feb6b52266f8f029ec6646d56a3183d8",
        "group0.arff": "5ae5730ce5ec7eb4d8b2e7a807c48c72dfb964778b3d613e3ecc87ca47de6306",
        "group0.tree.txt": "0aa377bb2aac5bfa32366d1f8e65824e6eb2f8c1535949691ad4fe346f8c61f4",
        "ksp_log.tsv": "47bf8b8b30c0b8debafa44b51337c030f17fc623c5f63efffe3b71b98bf2f6d0",
        "metrics.csv": "ab2f23975466f79da96e62a4ad837b294f4b69240e22c20bf44efcd0bfd4cd39",
        "network.txt": "302c79dd3013d7d3fd2ed9db4e5bc6d66074bde338babeb48d1b4dcd736d6531",
        "summary.csv": "6e49b8c4b061f20c2c4a7716b1955aec7854885693bc4da7c64a6e3403d28e9a",
        "train_log.tsv": "bf406e4243ed1564f2952fea430ab52a71574a9341a199031ee3a0a2bec0dd86",
    },
}


def run_digests(tmp_path, monkeypatch, flags):
    monkeypatch.delenv("SONSIM_OUTDIR", raising=False)
    outdir = tmp_path / "out"
    assert main(["run", "--strategy", "both", *flags, "--seed", "9",
                 "--outdir", str(outdir)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outdir.iterdir()}


@pytest.mark.parametrize("np_, nsp", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(tmp_path, monkeypatch, np_, nsp):
    digests = run_digests(tmp_path, monkeypatch, ["--np", str(np_), "--nsp", str(nsp)])
    assert digests == GOLDEN[(np_, nsp)]


@pytest.mark.parametrize("name", sorted(REFRESH_GOLDEN))
def test_refresh_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    flags, golden = REFRESH_GOLDEN[name]
    assert run_digests(tmp_path, monkeypatch, flags) == golden


@pytest.mark.parametrize("max_hops", sorted(HOPS_GOLDEN))
def test_max_hops_outputs_match_golden_digests(tmp_path, monkeypatch, max_hops):
    flags = ["--np", "300", "--nsp", "10", "--max-hops", str(max_hops)]
    assert run_digests(tmp_path, monkeypatch, flags) == HOPS_GOLDEN[max_hops]
