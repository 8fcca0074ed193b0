"""Audit reports pinned by sha256: the structural classification, both
monitors' counts and witnesses, and the revenue of the orderly and
longest-chain reductions, on the audit bench's games (sm and nsm at
stake 0.35 and 0.45, 2000 rounds, seeds 1-3).  Recorded before the replay
and shadow-game fast paths, so any change they make to a verdict, a
witness, a count or a revenue figure fails here."""

import hashlib

import pytest

from posmine.reductions import lcm_reduce, orderly_reduce
from posmine.strategies import format_action, make_strategy, run_game
from posmine.structure import checkpoint_override_check, classify_trace, fork_ownership_check

ROUNDS = 2000
CASES = [(s, a, seed) for s in ("sm", "nsm") for a in (0.35, 0.45) for seed in (1, 2, 3)]

# (strategy, alpha, seed) -> sha256 of the classification, of the
# fork-ownership monitor and of the override monitor
AUDIT = {
    ("sm", 0.35, 1): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "3fe41bd209063c26cfa55ec13e3fea9eb1dbfad7af69b326f29e7b276725d655",
        "22031a407b5eee29299536f7c9d6fd247e10777366c41b046bfb82782e96b6fa",
    ),
    ("sm", 0.35, 2): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "db9bd082a0fa86fc772201c4538d87d782ee8822b00907ce25eebf554d3dfa69",
        "ba4a19c07d7b789d000856b5da2111068a406d31f3456295b42dfac55b7fbc32",
    ),
    ("sm", 0.35, 3): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "7de5150f0ada2237c7fd5f3146af79e032db886d7d06a654210e16f27c99d320",
        "cfebcf0ad1d4fa50e96e42d4b7c795a84c61d39d48480902f858be4f6da0f07c",
    ),
    ("sm", 0.45, 1): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "4c73ed5fcc874c420752100297c628f5a1a0006b0de3f6ec1e0a9855db317ece",
        "cfebcf0ad1d4fa50e96e42d4b7c795a84c61d39d48480902f858be4f6da0f07c",
    ),
    ("sm", 0.45, 2): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "50af2f6437cc9ba8ccf9e14fb418960461aebe17d5f34f38f8a5760bdd2eed42",
        "9b9f537a1faf3b8d98468463c461e58a6c2cd8f626f923c8b641497c7fc05ab0",
    ),
    ("sm", 0.45, 3): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "82640f66ddcd0efee07193acb06c2408d0ee97e3a4e90f8eff5cc4e602ab6b32",
        "53bb09fe02505413998c32fa75a23dff6556d1bf4234099746f4e05ae031d750",
    ),
    ("nsm", 0.35, 1): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "07275465b541c05b9a12b345ff79e07d44184bd83564067524d66e3507f07923",
        "cfebcf0ad1d4fa50e96e42d4b7c795a84c61d39d48480902f858be4f6da0f07c",
    ),
    ("nsm", 0.35, 2): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "dba18dad6a9902f287a4e2bf400d801068aa8c4d332ab3b59ebeb73c2e54193c",
        "e2b65025fab002a8249e90d2df9624e6560ea89a399213a7b1ea7ac537eeec37",
    ),
    ("nsm", 0.35, 3): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "b3369e9ffca8df8ecb25ee4f06ad803a2c7ba9a6c6d230fe92e6af74f04480ec",
        "eb6db535ddc661980d41fb191233e1921ea6dc2b1307e58a7a304786edcdd511",
    ),
    ("nsm", 0.45, 1): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "b4638957831556866cd0cc5259ed1c8df98609429a69dc0053f8cc0aee6460a5",
        "410ea3ebb0832957c2082d90c116b57d4261e47c7adfbe77a7bae6b0932d00fc",
    ),
    ("nsm", 0.45, 2): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "f9152d0359e8f6e30e4728de2d33296ee98932741ebf260922819bf76c610538",
        "94a3c83daec4d3bc1b77dd83da36ba3e53b2608f2a215149c4dc8557beef5860",
    ),
    ("nsm", 0.45, 3): (
        "c33ac053ee5c3874df71a4cc5514b93e5112724c4c7cbb4f4390380d166c7e46",
        "d7643730a70a4ad4132095e062107e0bf55e1ea375867432cdb7995a271b58d1",
        "b649c3ba7b515d100745ffab6d09ff4622779057e508a4fcf3fcdcef3b67f5be",
    ),
}

# (alpha, seed) -> sha256 of the orderly and of the lcm reduction's
# revenue series, nsm inside, and of the Miner-1 actions both emit
REDUCED = {
    (0.35, 1): (
        "b0f342834dc9a74d75cc254009484b5600a40b8d8564e75699a6086082a51e1e",
        "b0f342834dc9a74d75cc254009484b5600a40b8d8564e75699a6086082a51e1e",
        "7407e1f0671b83fe7c50de86a5f42c7d29c89db08d0d866f2ba106253ff46850",
    ),
    (0.35, 2): (
        "ff360344e011f6f88545b93a1eca404c2ff43b3f86da79ee91e2582e1f6c4443",
        "ff360344e011f6f88545b93a1eca404c2ff43b3f86da79ee91e2582e1f6c4443",
        "bb73215c3b63612a351b1e76ffa07a97c1bc1bfce96dab4b81b6b35ef073763c",
    ),
    (0.35, 3): (
        "aadcc8d9c6d0b83bfdd0dd09347db8af1b88d141d993d3b991ecb04578e6b9bf",
        "aadcc8d9c6d0b83bfdd0dd09347db8af1b88d141d993d3b991ecb04578e6b9bf",
        "6fb0c5f63f5e22d4d0ea013e0d240f53353bc7e1b46748e23473544988baebe7",
    ),
    (0.45, 1): (
        "03eac730e99f82a95f04fc33787757ae805f3fa794dc62352b8b8f3ba6fcdeb8",
        "03eac730e99f82a95f04fc33787757ae805f3fa794dc62352b8b8f3ba6fcdeb8",
        "4857dcb9ca2cd0566f24ab6f0901e9adb0bae45dff397616dff262a19bc1cd12",
    ),
    (0.45, 2): (
        "42974b670ac101abb604ef08bfc68ab3a55d2da0a2c3c6cb420016e3d0503235",
        "42974b670ac101abb604ef08bfc68ab3a55d2da0a2c3c6cb420016e3d0503235",
        "4b47ab35ae97620b0db0fd49b9d010a3328bcea10af5f17a89873a4cf0560b38",
    ),
    (0.45, 3): (
        "3aad4589c54d8f9a3121329f4f259e76f25949c1ffd5b544e7fd1b9b6b6d7a3c",
        "3aad4589c54d8f9a3121329f4f259e76f25949c1ffd5b544e7fd1b9b6b6d7a3c",
        "768b160c1ff9fa1887fe0700f1dfa1d56c610734c94410f72d193f97c6b809bd",
    ),
}


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def monitor_digest(report) -> str:
    return sha256((report.checked, report.violations, report.skipped))


def audit_digests(strategy, alpha, seed):
    trace = run_game(make_strategy(strategy), alpha, ROUNDS, seed=seed)
    return (
        sha256(classify_trace(trace).as_dict()),
        monitor_digest(fork_ownership_check(trace)),
        monitor_digest(checkpoint_override_check(trace)),
    )


def reduced_digests(alpha, seed):
    orderly = run_game(orderly_reduce(make_strategy("nsm")), alpha, ROUNDS, seed=seed)
    lcm = run_game(lcm_reduce(make_strategy("nsm"), horizon=ROUNDS), alpha, ROUNDS, seed=seed)
    actions = [list(map(format_action, t.m1_actions)) for t in (orderly, lcm)]
    return sha256(orderly.revenue_series()), sha256(lcm.revenue_series()), sha256(actions)


@pytest.mark.parametrize("strategy,alpha,seed", CASES)
def test_audit_reports_are_unchanged(strategy, alpha, seed):
    assert audit_digests(strategy, alpha, seed) == AUDIT[strategy, alpha, seed]


@pytest.mark.parametrize("alpha,seed", [(a, seed) for a in (0.35, 0.45) for seed in (1, 2, 3)])
def test_reduced_revenue_is_unchanged(alpha, seed):
    assert reduced_digests(alpha, seed) == REDUCED[alpha, seed]
