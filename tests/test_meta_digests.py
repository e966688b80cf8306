"""Strategy metadata pinned across commits: sha256 of canonical JSON.

The golden CLI digests see `GameResult.meta` only through the counts in
a result row.  These digests pin the whole record of seeded games: the
case, team sizes, rounds, the assignment audit and every failure with
its keys.  A refactor of the team strategies that changes what a
strategy did, and not only what the CLI printed, fails here.  Like the
golden digests they change only with a deliberate behaviour change,
listed in CHANGES.md.  The whole trace of each game is pinned as well:
the clean-up sweep dispatches without an audit entry, so only the cop
positions it produces show what it did.

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


# (argv, failure kind some game must record or None, one metadata digest
# per trial, one trace digest per trial)
GAMES = [
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--trials", "2", "--seed", "0"],
     None,
     ["1129ca1a10d4a63dcaaa27c6bcc5f7c7fd747a73bc87371fbfa7e206d5b40cfe",
      "fb76f53b20ffb42f5e99ae9f9d0ebb15067b4595a2d8bac7006879546d1d9c1e"],
     ["2ba7b052003842ed810f7e2c45e800cc341c2c041d741d286fdbfe5c6e0d3db5",
      "e51e0b03143cada2c55619f8f41f4693343ca13354918b028f96082adf38fd5b"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--d", "60",
      "--trials", "2", "--seed", "0"],
     None,
     ["cdf95b4cabb36d31517135ee8e424784f7f7116157f482f07719445763a53cf9",
      "47b216d067110d407c204ffb108cacc0e4fbd8f5df4288e238135bfb36aac3b9"],
     ["ab6453d1f4a3602a180ab64fdce78fd6f02d47ae98e35b890117295adfbf4f56",
      "eabe29af58b3029b95f52c9aa227ddb7a012a2fe5496763f263f9f9618e8b0d0"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--C", "8", "--d", "12",
      "--trials", "2", "--seed", "0"],
     None,
     ["6de30ac61d5298881328e8f100c2449e924c63350f4bc4ff554b36d05e693713",
      "7f9e9dd9f8795846ab361a2f0d16f30d6df19de22c4dd2c1f6745e334f722cbe"],
     ["706691c10493195cc2b23f25e5a1ef5a4e8b4cde2d4808bb02843aa38ef3a925",
      "74456513a9cc5acda8534891fb9da3ce552297ad9ce520194aedd2bf2eeb3f27"]),
    (["simulate", "--regime", "dense", "--n", "2000", "--d", "12.0", "--C", "4.0",
      "--trials", "1", "--seed", "1893146418"],
     "aux-cover-deficient",
     ["76a7560252b57d28d2164d81c07ff8a0e76e9bccce65e802f182d8ca571c5ebd"],
     ["d411455537728d0bd8f5223dd4d743a8bc7251c4393051db11bba14d71feccc0"]),
    (["simulate", "--regime", "sparse", "--n", "3000", "--C", "16", "--trials", "4", "--seed", "0"],
     "final-cover-deficient",
     ["f36afaad636fb0a5ba9a2644b0a3aaeca70ddd0d1f7ffbfff8282e5dfb315bec",
      "f9f41bdc34311108ef3617ec9e75dfc531872fafb529428d8386dff43b959840",
      "5d9e8ef56c8f5f974af6db39304a8a194f50b21c441dff3b9cfd75cb6d108667",
      "0cdbe7a3ee95c76015f0acae55d31e6bdea13b4d1d0eb9e6931f205bd644144f"],
     ["c7d642abeb3cbe5665341892f8850526245059865c4953c5ed0cf167fab430e8",
      "c272f777126308eadeb65315aa6ad636a3a5719ae03293751191008535e6bf01",
      "fd2d7460b1fb5f91d143689c4786d4c7f45f9e4c7d070fbbc39be7d27a889d7d",
      "ae332c972f3ec651739c2766a467c1d8fabafcb7d80a9652ef2e65c06b21aad1"]),
]


@pytest.mark.parametrize(
    "argv,kind,digests,trace_digests", GAMES,
    ids=[f"{i:02d}-{argv[2]}" for i, (argv, *_) in enumerate(GAMES)],
)
def test_game_meta(monkeypatch, tmp_path, argv, kind, digests, trace_digests):
    results = []
    play = pursuit.cli.play

    def recording(*args, **kwargs):
        res = play(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(pursuit.cli, "play", recording)
    assert main(argv + ["--out", str(tmp_path / "run.out")]) == 0
    failures = [f for r in results for f in r.meta["failures"]]
    if kind is not None:
        assert any(f["kind"] == kind for f in failures)
    # every deficient cover names its Hall violation
    assert all(f["violation"] for f in failures if f["kind"].endswith("-deficient"))
    assert [_digest(r.meta) for r in results] == digests
    assert [_digest(r.trace) for r in results] == trace_digests


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
