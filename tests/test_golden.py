"""Golden outputs: `sonsim run --strategy both` at seed 9 must keep writing
byte-identical files.

The digests were captured before the relevance kernel was shared by the
oracle and both routers. A change that alters outputs on purpose re-pins
them here, and says why.
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


@pytest.mark.parametrize("np_, nsp", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(tmp_path, monkeypatch, np_, nsp):
    monkeypatch.delenv("SONSIM_OUTDIR", raising=False)
    outdir = tmp_path / "out"
    assert main(["run", "--strategy", "both", "--np", str(np_), "--nsp", str(nsp),
                 "--seed", "9", "--outdir", str(outdir)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in outdir.iterdir()}
    assert digests == GOLDEN[(np_, nsp)]
