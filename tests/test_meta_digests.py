"""Strategy metadata pinned across commits: sha256 of canonical JSON.

The golden CLI digests see `GameResult.meta` only through the counts in
a result row.  These digests pin the whole record of seeded games: the
case, team sizes, rounds, the assignment audit and every failure with
its keys.  A refactor of the team strategies that changes what a
strategy did, and not only what the CLI printed, fails here.  Like the
golden digests they change only with a deliberate behaviour change,
listed in CHANGES.md.

The games cover the three dense cases at n=2000, an isolated robber
that leaves the auxiliary cover deficient, and four sparse games, the
last of which releases the final team onto 2,436 destinations and
leaves its cover deficient.  The dense clean-up release fires in none
of them, so it is called directly on a planned sphere-relay strategy.
"""

import hashlib
import json

import pytest

import pursuit.cli
from pursuit.cli import main
from pursuit.game import GameState
from pursuit.models import gnp
from pursuit.strategies import DenseStrategy, DenseStrategyConfig, GreedyRobber


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=int, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# (argv, failure kind some game must record or None, one digest per trial)
GAMES = [
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--trials", "2", "--seed", "0"],
     None,
     ["1129ca1a10d4a63dcaaa27c6bcc5f7c7fd747a73bc87371fbfa7e206d5b40cfe",
      "fb76f53b20ffb42f5e99ae9f9d0ebb15067b4595a2d8bac7006879546d1d9c1e"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--d", "60",
      "--trials", "2", "--seed", "0"],
     None,
     ["cdf95b4cabb36d31517135ee8e424784f7f7116157f482f07719445763a53cf9",
      "47b216d067110d407c204ffb108cacc0e4fbd8f5df4288e238135bfb36aac3b9"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--d", "12",
      "--trials", "2", "--seed", "0"],
     None,
     ["6de30ac61d5298881328e8f100c2449e924c63350f4bc4ff554b36d05e693713",
      "7f9e9dd9f8795846ab361a2f0d16f30d6df19de22c4dd2c1f6745e334f722cbe"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--d", "12.0", "--C", "4.0",
      "--trials", "1", "--seed", "1893146418"],
     "aux-cover-deficient",
     ["ee4eaf04441d3096ed12e541cd23d4e06e94c4565f6ab7f7b12b3b6e473a65a3"]),
    (["simulate", "--regime", "sparse", "--n", "3000", "--C", "16", "--trials", "4", "--seed", "0"],
     "final-cover-deficient",
     ["f36afaad636fb0a5ba9a2644b0a3aaeca70ddd0d1f7ffbfff8282e5dfb315bec",
      "f9f41bdc34311108ef3617ec9e75dfc531872fafb529428d8386dff43b959840",
      "5d9e8ef56c8f5f974af6db39304a8a194f50b21c441dff3b9cfd75cb6d108667",
      "7b5d68b77e44a1b0451681f19b389a54e76824539ed9b55b63de56e566f3b400"]),
]


@pytest.mark.parametrize(
    "argv,kind,digests", GAMES,
    ids=[f"{i:02d}-{argv[2]}" for i, (argv, _, _) in enumerate(GAMES)],
)
def test_game_meta(monkeypatch, tmp_path, argv, kind, digests):
    metas = []
    play = pursuit.cli.play

    def recording(*args, **kwargs):
        res = play(*args, **kwargs)
        metas.append(res.meta)
        return res

    monkeypatch.setattr(pursuit.cli, "play", recording)
    assert main(argv + ["--out", str(tmp_path / "run.out")]) == 0
    if kind is not None:
        assert any(f["kind"] == kind for m in metas for f in m["failures"])
    assert [_digest(m) for m in metas] == digests


def test_dense_cleanup_release():
    n = 2000
    g = gnp(n, 12 / (n - 1), 2)
    strat = DenseStrategy(g, DenseStrategyConfig(C=2.0, seed=2))
    cops = tuple(sorted(strat.place(g)))
    robber = GreedyRobber().choose(g, cops)
    strat.move(g, GameState(cops, robber, "cops", 0))
    assert strat.case == "sphere-relay" and strat.holes
    strat._release_cleanup(min(strat.holes))
    record = {
        "paths": [[c.cid, c.pos, c.path] for c in strat.cleanup],
        "failures": strat.meta["failures"],
    }
    assert any(c.path for c in strat.cleanup)
    assert _digest(record) == "9b1f57dd953a3e13b47041cb4b19c721ec91799a6b8c9bb18094a3ec16fefa58"
