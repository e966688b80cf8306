"""Golden CLI outputs: sha256 digests pinned across commits.

`test_13_cli_determinism` runs each command twice with the same code, so
it cannot notice when a change to the kernels alters an output byte.
These digests were recorded once and must only change together with a
deliberate behaviour change, listed in CHANGES.md.

The two dense games at n=600 reach the "sphere-relay" (d=12) and "hold"
(d=60) cases; at n=400 the same degrees still select "saturate" and
"hold".
"""

import hashlib

import pytest

from pursuit.cli import main

GOLDEN = [
    (["gen", "--model", "gnm", "--n", "60", "--m", "150", "--seed", "9"],
     "b33fb223f2197e0c1c2d0f17f98a0f3dcfd0ee9218981cc6ba30d8272b97cc32"),
    (["exact", "--graph", "petersen", "--format", "json"],
     "ddf21237a02982938b87e2ae5c74242134dac7a331ad0becc072b5c8b7baeee6"),
    (["simulate", "--regime", "dense", "--n", "150", "--trials", "2",
      "--seed", "3", "--horizon", "50"],
     "5357363b1aef0a2fad07760614ee069dd68c9b4004e129d52a003b0558e7d945"),
    (["simulate", "--regime", "sparse", "--n", "400", "--trials", "2",
      "--seed", "4", "--C", "16", "--horizon", "200"],
     "455d4d59870fae516425f5c0dd3db77a86546cf21ed820debb823abe6a5ca69e"),
    (["verify-expansion", "--regime", "dense", "--n", "300", "--trials", "1",
      "--count", "10", "--seed", "5"],
     "b4cd0ddfccb9356727bad5d0a09952ef4f545bd8efee2580bc54bdfefa20ed00"),
    (["verify-expansion", "--regime", "sparse", "--n", "400", "--trials", "1",
      "--count", "10", "--seed", "6"],
     "e74c0aa75c49169ebe169eb8a8103f58e61c647667610525cf4d41fe4ae36809"),
    (["bounds", "--kind", "geps", "--eps", "0.6", "--format", "json"],
     "36e69122800f7c527d5752c0c36c7091cfc1bceee1805968e096dc49bd7f5839"),
    (["zigzag", "--points", "40"],
     "9d5a93732b649a3ae0a3a573dcc63b03a1b93bae16107fe5cd1b165eaebae981"),
    (["scaling", "--sizes", "64", "--Cs", "8", "--trials", "2",
      "--target", "0.0", "--seed", "1", "--horizon", "40"],
     "94f36d89c18cd33567661f1bfe2c3ec3bb5162997441f79da74a9d7c89d19888"),
    (["simulate", "--regime", "dense", "--n", "600", "--d", "12", "--C", "4",
      "--trials", "3", "--seed", "7"],
     "92d97b444053e73286231c523e6be6d2ea6c3ba917c871ea6fe3ed8a5021be66"),
    (["simulate", "--regime", "dense", "--n", "600", "--d", "60", "--C", "4",
      "--trials", "3", "--seed", "8"],
     "667b926d9c0909d933a1090901ab22684eca30eb247e0f7e8769cd7bf6807ec1"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)]
)
def test_golden_output(tmp_path, argv, digest):
    out = tmp_path / "run.out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
