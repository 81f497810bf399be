"""CLI (ray-job-submit surface) smoke tests — in-process, reusing the
session fixture (the CLI's guarded init is a no-op when Ray is up)."""

import json

from etl_ray.cli import main


def test_cli_end_to_end(tmp_path, capsys, ray_session):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")

    assert main(["gen-wal", "--keys", "200", "--epochs", "2",
                 "--out", wal]) == 0
    gen = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert gen["n_epochs"] == 2 and gen["n_events"] > 200

    assert main(["replay", "--wal", wal, "--lake", lake,
                 "--epochs", "2", "--partitions", "8"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["epochs_applied"] == 2
    assert rep["n_events"] == gen["n_events"]

    assert main(["lineage", "--lake", lake]) == 0
    lin = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert lin["n_events"] == gen["n_events"]

    assert main(["compact", "--lake", lake]) == 0
    comp = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < comp["live_rows"] <= gen["n_events"]

    assert main(["query", "--name", "filter_rows",
                 "--sf-dir", "/root/testdata/sf0.001"]) == 0
    q = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert q["n_rows"] > 0 and "l_orderkey" in q["columns"]

    out = str(tmp_path / "snap")
    assert main(["export", "--lake", lake, "--out", out]) == 0
    ex = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert ex["n_rows"] == comp["live_rows"] and ex["n_skipped"] == 0

    view = str(tmp_path / "view")
    assert main(["view-create", "--lake", lake, "--view", view,
                 "--group", "lang", "--sum", "size",
                 "--as-of", "0"]) == 0
    assert main(["view-refresh", "--lake", lake, "--view", view]) == 0
    vr = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert vr["as_of_epoch"] == 1 and vr["n_groups"] > 0


def test_lake_read_column_pruning(tmp_path, ray_session):
    from etl_ray.pipelines.cdc import replay
    from etl_ray.sources.corpus import generate_corpus
    from etl_ray.sources.wal import generate_wal
    from etl_ray.state.lake import read_lake

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    corpus = generate_corpus(150, n_repos=10)
    generate_wal(corpus, wal, n_epochs=2, n_repos=10)
    replay(wal, lake, 2, num_partitions=8)
    full = read_lake(lake).to_pandas()
    slim = read_lake(lake, columns=["size"]).to_pandas()
    assert len(slim) == len(full)
    assert "content" not in slim.columns and "size" in slim.columns
    assert sorted(slim["size"]) == sorted(full["size"])
