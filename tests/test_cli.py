import json

import pytest

from hyperconv.cli import main


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
