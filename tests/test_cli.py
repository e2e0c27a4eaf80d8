import json
import math

import pytest

from hyperconv.cli import main
from hyperconv.extremizer import q_ratio
from hyperconv.profiles import trial_profile


def test_maximize_prints_one_json_run_record(capsys):
    assert main(["maximize", "--s", "1", "--grid-size", "64", "--r-max", "20",
                 "--restarts", "2", "--iters", "3", "--seed", "7"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "maximize"
    assert record["inputs"] == {"s": 1.0, "grid_size": 64, "r_max": 20.0,
                                "restarts": 2, "iters": 3, "seed": 7}
    assert record["seed"] == 7
    assert set(record["versions"]) == {"hyperconv", "numpy", "scipy"}
    assert record["wall_s"] > 0.0
    assert record["q_star"] >= record["trial_best_q"] > 0.0
    assert isinstance(record["q_refined"], float)
    assert [row["restart"] for row in record["restarts"]] == [0, 1]
    assert all(row["stop"] == "iters" for row in record["restarts"])


def test_maximize_rejects_bad_input_by_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maximize", "--grid-size", "32"])
    assert exc.value.code == 2
    assert "grid_size" in capsys.readouterr().err


def test_maximize_rejects_a_negative_seed_by_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maximize", "--grid-size", "64", "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


def test_maximize_rejects_an_r_max_inside_the_mass_by_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maximize", "--grid-size", "64", "--r-max", "0.5"])
    assert exc.value.code == 2
    assert "r_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["maximize", "study"])
def test_radial_search_commands_refuse_the_cone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--s", "0"])
    assert exc.value.code == 2
    assert "mass parameter s must be > 0" in capsys.readouterr().err


def test_scan_prints_one_json_run_record(capsys):
    assert main(["scan", "--s", "1", "--k-max", "4", "--nodes-per-shell", "16"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "scan"
    assert record["inputs"] == {"s": 1.0, "k_max": 4, "profile_kind": "bump",
                                "nodes_per_shell": 16}
    assert set(record["versions"]) == {"hyperconv", "numpy", "scipy"}
    assert record["wall_s"] > 0.0
    table = record["table"]
    assert len(table) == 5 and all(len(row) == 5 for row in table)
    assert all(table[i][j] == table[j][i] > 0.0 for i in range(5) for j in range(5))
    assert set(record["report"]) == {"slope", "intercept", "constant", "diag_max", "refined"}
    assert record["report"]["slope"] < 0.0


@pytest.mark.parametrize("argv, name", [(["--s", "0"], "mass parameter s"),
                                        (["--k-max", "3"], "k_max"),
                                        (["--nodes-per-shell", "4"], "nodes_per_shell"),
                                        (["--profile-kind", "box"], "profile_kind")])
def test_scan_rejects_bad_input_by_name(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--k-max", "4", "--nodes-per-shell", "16"] + argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_maximize_rows_count_q_evaluations(capsys):
    assert main(["maximize", "--s", "1", "--grid-size", "64", "--r-max", "20",
                 "--restarts", "3", "--iters", "20", "--seed", "7"]) == 0
    rows = json.loads(capsys.readouterr().out)["restarts"]
    assert len(rows) == 3
    assert all(row["evaluations"] >= row["iterations"] for row in rows)


def test_study_prints_one_json_run_record(capsys):
    assert main(["study", "--s", "1", "--r-max", "20", "--n", "64,128", "--n", "256"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "study"
    assert record["inputs"] == {"s": 1.0, "r_max": 20.0, "n_list": [64, 128, 256]}
    assert set(record["versions"]) == {"hyperconv", "numpy", "scipy"}
    assert record["wall_s"] > 0.0
    assert len(record["q_star"]) == 3 and len(record["richardson"]) == 2
    assert len(record["observed_orders"]) == 1
    assert record["q_inf"] == record["richardson"][-1]
    assert record["error_bar"] > 0.0
    assert [row["n"] for row in record["rows"]] == [64, 128, 256]
    assert all(row["wall_s"] > 0.0 for row in record["rows"])


@pytest.mark.parametrize("argv, name", [(["--n", "64,128"], "n_list"),
                                        (["--n", "64,x,256"], "--n"),
                                        (["--n", "64,128,256", "--r-max", "0.5"], "r_max")])
def test_study_rejects_bad_input_by_name(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(["study"] + argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_q_prints_one_json_run_record(capsys):
    assert main(["q", "--a", "0.3", "--s", "1", "--r-max", "40", "--n", "500",
                 "--grid-n", "600"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "q"
    assert record["inputs"] == {"a": 0.3, "s": 1.0, "r_max": 40.0, "n": 500, "grid_n": 600}
    assert set(record["versions"]) == {"hyperconv", "numpy", "scipy"}
    assert record["wall_s"] > 0.0
    assert record["q"] > 2.0 * math.pi
    assert set(record["report"]) == {"grid_n", "error_estimate", "tail_mass_fraction",
                                     "sharp_constant_lower_bound"}
    assert record["report"]["grid_n"] == 600
    q, _ = q_ratio(trial_profile(0.3, 1.0, r_max=40.0, n=500), n=600)
    assert record["q"] == q


def test_q_defaults_the_engine_grid(capsys):
    assert main(["q", "--n", "200"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["inputs"]["grid_n"] is None
    assert record["report"]["grid_n"] >= 256


@pytest.mark.parametrize("argv, name", [(["--a", "nan"], "decay rate a"),
                                        (["--a", "0"], "decay rate a"),
                                        (["--s", "-1"], "mass parameter s"),
                                        (["--r-max", "0.5"], "r_max"),
                                        (["--n", "1"], "n must be"),
                                        (["--grid-n", "10"], "grid_n"),
                                        (["--a", "x"], "--a")])
def test_q_rejects_bad_input_by_name(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(["q"] + argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_field_prints_the_even_pair_record(capsys):
    # the a = 1 exponential pair at s = 1, r_max = 20 on the 161 x 243
    # template: Qbar = 12.4897, a third above the double cone's 3 pi
    assert main(["field", "--a", "1", "--s", "1", "--r-max", "20", "--n", "400",
                 "--n-rho", "161", "--n-tau", "243"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "field"
    assert record["inputs"] == {"a": 1.0, "s": 1.0, "r_max": 20.0, "n": 400,
                                "n_rho": 161, "n_tau": 243}
    assert set(record["versions"]) == {"hyperconv", "numpy", "scipy"}
    assert record["wall_s"] > 0.0
    assert abs(record["qbar"] - 12.4897) <= 1e-4
    breakdown = record["breakdown"]
    assert breakdown["numerator"] / breakdown["denominator_sq"] == record["qbar"]
    assert breakdown["terms"]["upper_self"] == breakdown["terms"]["lower_self"]


@pytest.mark.parametrize("argv, name", [(["--a", "0"], "decay rate a"),
                                        (["--s", "nan"], "mass parameter s"),
                                        (["--r-max", "0.5"], "r_max"),
                                        (["--n", "1"], "n must be"),
                                        (["--n-rho", "1"], "n_rho"),
                                        (["--n-tau", "0"], "n_tau")])
def test_field_rejects_bad_input_by_name(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--n", "20", "--n-rho", "9", "--n-tau", "9"] + argv)
    assert exc.value.code == 2
    assert name in capsys.readouterr().err
