import concurrent.futures
import os

import pytest
from click.testing import CliRunner

from posmine.cli import main
from conftest import data_path


@pytest.fixture
def runner():
    return CliRunner()


def data_rows(output):
    return [ln for ln in output.splitlines() if ln and not ln.startswith("#")]


# --- walk ---------------------------------------------------------------------


def test_walk_prints_the_four_expectations(runner):
    res = runner.invoke(main, ["walk", "--alpha", "0.25", "--lead", "2"])
    assert res.exit_code == 0
    assert res.output == "up 0.500000\ndown 1.500000\nduration 2.000000\nruin 0.111111\n"


def test_walk_rejects_boundary_stake(runner):
    res = runner.invoke(main, ["walk", "--alpha", "0.5"])
    assert res.exit_code == 2


# --- revenue ------------------------------------------------------------------


def test_revenue_closed_form_single_point(runner):
    res = runner.invoke(
        main, ["revenue", "--strategy", "frontier", "--alpha", "0.3"]
    )
    assert res.exit_code == 0
    rows = data_rows(res.output)
    assert rows[0] == "alpha,strategy,method,estimate,stderr,rounds,games,cycles,seed"
    assert rows[1].startswith("0.3,frontier,closed_form,0.3,")
    assert len(rows) == 2


def test_revenue_grid_is_inclusive(runner):
    res = runner.invoke(
        main,
        ["revenue", "--strategy", "sm", "--alpha-grid", "0.25:0.45:0.05"],
    )
    assert res.exit_code == 0
    rows = data_rows(res.output)[1:]
    assert len(rows) == 5
    alphas = [float(r.split(",")[0]) for r in rows]
    assert alphas == pytest.approx([0.25, 0.30, 0.35, 0.40, 0.45])


def test_revenue_reruns_are_byte_identical(runner):
    args = [
        "revenue", "--strategy", "nsm", "--mode", "simulate",
        "--alpha", "0.35", "--cycles", "400", "--seed", "7",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "# command: revenue" in first.output
    assert "mc_renewal" in first.output


def test_revenue_simulate_liminf_route(runner):
    res = runner.invoke(
        main,
        [
            "revenue", "--strategy", "frontier", "--mode", "simulate",
            "--alpha", "0.3", "--rounds", "200", "--games", "4", "--seed", "1",
        ],
    )
    assert res.exit_code == 0
    row = data_rows(res.output)[1].split(",")
    assert row[2] == "mc_liminf"
    assert float(row[3]) == pytest.approx(0.3, abs=0.12)


def test_revenue_liminf_at_bench_size_starts_no_pool(runner, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a 4 x 3000-round job started a process pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    res = runner.invoke(
        main,
        [
            "revenue", "--strategy", "nsm", "--mode", "simulate",
            "--alpha", "0.35", "--rounds", "3000", "--games", "4",
        ],
    )
    assert res.exit_code == 0, res.exception
    assert data_rows(res.output)[1].split(",")[2] == "mc_liminf"


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--strategy", "sm", "--alpha", "0.35", "--rounds", "50"],
        ["revenue", "--strategy", "sm", "--alpha", "0.35", "--mode", "simulate",
         "--cycles", "200"],
        ["stake", "--strategy", "nsm", "--alpha0", "0.3", "--rounds", "50"],
    ],
    ids=["simulate", "revenue", "stake"],
)
def test_reruns_without_a_seed_are_byte_identical(runner, args):
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "# seed: 0" in first.output


@pytest.mark.parametrize(
    "args",
    [
        ["--strategy", "sm"],  # neither alpha nor grid
        ["--strategy", "sm", "--alpha", "0.3", "--alpha-grid", "0.1:0.2:0.1"],
        ["--strategy", "sm", "--alpha-grid", "0.1:0.4"],  # malformed grid
        ["--strategy", "sm", "--alpha-grid", "0.4:0.2:0.1"],  # hi < lo
        ["--strategy", "sm", "--alpha", "0.6"],  # out of range
        ["--strategy", "mystery", "--alpha", "0.3"],  # no closed form
        ["--strategy", "sm", "--alpha", "0.3", "--mode", "simulate"],  # no budget
    ],
)
def test_revenue_usage_errors(runner, args):
    res = runner.invoke(main, ["revenue"] + args)
    assert res.exit_code == 2


# --- simulate -----------------------------------------------------------------


def test_simulate_trace_schema(runner, tmp_path):
    dot = tmp_path / "tree.dot"
    res = runner.invoke(
        main,
        [
            "simulate", "--strategy", "sm", "--alpha", "0.35",
            "--rounds", "30", "--seed", "4", "--emit-tree", str(dot),
        ],
    )
    assert res.exit_code == 0
    rows = data_rows(res.output)
    assert rows[0] == (
        "round,creator,miner2_action,miner1_action,chain_tip,height,r1,r2,capitulated"
    )
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 30
    for i, cols in enumerate(body):
        assert cols[0] == str(i + 1)
        assert cols[1] in ("1", "2")
        if cols[1] == "2":
            assert cols[2].startswith(f"publish:{i + 1}->")
        else:
            assert cols[2] == "wait"
        assert cols[3] == "wait" or cols[3].startswith("publish:")
        assert cols[8] in ("0", "1")
    assert any(";" in cols[3] for cols in body)  # multi-block publishes stay one field
    text = dot.read_text()
    assert text.startswith("digraph")


def test_simulate_writes_csv_file(runner, tmp_path):
    out = tmp_path / "trace.csv"
    args = [
        "simulate", "--strategy", "frontier", "--alpha", "0.3",
        "--rounds", "10", "--seed", "2", "--out", str(out),
    ]
    assert runner.invoke(main, args).exit_code == 0
    first = out.read_text()
    assert runner.invoke(main, args).exit_code == 0
    assert out.read_text() == first
    assert "# strategy: frontier" in first


# --- verify -------------------------------------------------------------------


def test_verify_clean_strategy_passes(runner):
    res = runner.invoke(
        main,
        [
            "verify", "--strategy", "frontier", "--rounds", "200",
            "--games", "3", "--monitors",
        ],
    )
    assert res.exit_code == 0
    assert "timeserving: ok (3 games)" in res.output
    assert "orderly: ok (3 games)" in res.output
    assert "fork_ownership: ok (3 games)" in res.output
    assert "checkpoint_override: ok (3 games)" in res.output


def test_verify_flags_a_scripted_violation(runner, tmp_path):
    script = tmp_path / "skip.script"
    script.write_text("2 publish 2 -> 0 cap\n")
    res = runner.invoke(
        main,
        [
            "verify", "--strategy", f"scripted:@{script}",
            "--properties", "orderly", "--alpha", "0.45",
            "--rounds", "10", "--games", "1", "--seed", "11",
        ],
    )
    assert res.exit_code == 1
    assert "orderly: violation game=0 round=2" in res.output


def test_verify_reports_a_repeated_property_once(runner):
    res = runner.invoke(
        main,
        [
            "verify", "--strategy", "frontier", "--properties", "orderly,lcm,orderly",
            "--games", "2", "--rounds", "50",
        ],
    )
    assert res.exit_code == 0
    assert res.output.splitlines()[2:] == ["orderly: ok (2 games)", "lcm: ok (2 games)"]


def test_verify_rejects_unknown_property(runner):
    res = runner.invoke(
        main, ["verify", "--strategy", "sm", "--properties", "tidy"]
    )
    assert res.exit_code == 2


# --- reduce -------------------------------------------------------------------


def test_reduce_orderly_leaves_an_orderly_inner_alone(runner):
    res = runner.invoke(
        main,
        ["reduce", "--inner", "sm", "--kind", "orderly", "--rounds", "50", "--seed", "3"],
    )
    assert res.exit_code == 0
    rows = data_rows(res.output)
    assert rows[0] == "round,rev_inner,rev_reduced"
    assert len(rows) == 51
    for r in rows[1:]:
        _, ri, rr = r.split(",")
        assert ri == rr


def test_reduce_lcm_never_loses_revenue(runner):
    res = runner.invoke(
        main,
        ["reduce", "--inner", "nsm", "--kind", "lcm", "--rounds", "60", "--seed", "5"],
    )
    assert res.exit_code == 0
    for r in data_rows(res.output)[1:]:
        _, ri, rr = r.split(",")
        assert float(rr) >= float(ri) - 1e-12


# --- checkpoints --------------------------------------------------------------


def test_checkpoints_of_the_example_state(runner):
    res = runner.invoke(main, ["checkpoints", "--state", str(data_path("example_fig.state"))])
    assert res.exit_code == 0
    assert res.output == "0 1 5 7\n"


def test_checkpoints_rejects_garbage(runner, tmp_path):
    bad = tmp_path / "bad.state"
    bad.write_text("posmine-state v1 round x offset 0\n")
    res = runner.invoke(main, ["checkpoints", "--state", str(bad)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["checkpoints", "--state", str(tmp_path / "missing")])
    assert res.exit_code == 2


# --- stake --------------------------------------------------------------------


def test_stake_csv(runner, tmp_path):
    out = tmp_path / "stake.csv"
    res = runner.invoke(
        main,
        [
            "stake", "--strategy", "frontier", "--alpha0", "0.33",
            "--rounds", "500", "--seed", "6", "--out", str(out),
        ],
    )
    assert res.exit_code == 0
    rows = data_rows(out.read_text())
    assert rows[0] == "round,stake"
    assert len(rows) == 501
    assert float(rows[-1].split(",")[1]) == pytest.approx(0.33, abs=0.02)


def test_stake_rejects_bad_fraction(runner):
    res = runner.invoke(
        main, ["stake", "--strategy", "nsm", "--alpha0", "0.6", "--rounds", "10"]
    )
    assert res.exit_code == 2
