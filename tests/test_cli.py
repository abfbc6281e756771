import json

import numpy as np
import pytest

from ccgl import encoder, pipeline
from ccgl.autodiff import load_checkpoint, save_checkpoint
from ccgl.cli import main
from ccgl.config import ConfigError, RunConfig, config_from_dict, default_config, load_config, save_config
from ccgl.pipeline import load_snapshot, run_pipeline, stage_data, stage_evaluate, stage_export, stage_train_cgl, stage_train_dgc


def tiny_config_dict(out_dir, **train_overrides):
    train = {"batch_size": 100, "cgl_epochs": 2, "dgc_epochs": 4, "cgl_lr": 0.003, "dgc_lr": 0.005}
    train.update(train_overrides)
    return {
        "data": {"synth": {"n_patients": 10, "n_rois": 8, "n_timepoints": 160, "n_sites": 1}},
        "encoder": {"hidden1": 8, "hidden2": 8, "embed_dim": 6},
        "dgc": {"k": 3, "hidden1": 6, "hidden2": 6},
        "train": train,
        "seeds": [0],
        "out_dir": str(out_dir),
    }


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict(tmp_path / "run")))
    return path


class TestConfig:
    def test_defaults_match_reference_values(self):
        cfg = default_config()
        assert cfg.train.batch_size == 100
        assert cfg.train.cgl_epochs == 150 and cfg.train.dgc_epochs == 150
        assert cfg.train.cgl_lr == 0.001 and cfg.train.dgc_lr == 0.005
        assert cfg.encoder.tau == 0.1
        assert cfg.encoder.cheb_k == 3
        assert cfg.dgc.k == 20
        assert cfg.split_ratios == (0.7, 0.1, 0.2)
        assert len(cfg.seeds) == 5

    def test_field_path_in_errors(self):
        doc = tiny_config_dict("x")
        doc["encoder"]["tau"] = -1.0
        with pytest.raises(ConfigError, match="encoder.tau"):
            config_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = tiny_config_dict("x")
        doc["mystery"] = 1
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict(doc)

    def test_requires_exactly_one_data_source(self):
        doc = tiny_config_dict("x")
        del doc["data"]
        with pytest.raises(ConfigError, match="data"):
            config_from_dict(doc)

    def test_roundtrip_revalidates(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        again = load_config(path)
        assert again.to_dict() == cfg.to_dict()

    def test_synth_validation_path(self):
        doc = tiny_config_dict("x")
        doc["data"]["synth"]["n_patients"] = 2
        with pytest.raises(ConfigError, match="data.synth"):
            config_from_dict(doc)


class TestStages:
    def test_stage_chain_produces_artifacts(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        stage_data(cfg, 0)
        stage_train_cgl(cfg, 0)
        stage_train_dgc(cfg, 0)
        stage_evaluate(cfg, 0)
        stage_export(cfg, 0)
        run_dir = tmp_path / "run" / "seed_0"
        for name in (
            "cohort.json",
            "series.npz",
            "effective_config.json",
            "cgl_params.json",
            "cgl_history.csv",
            "embeddings.npz",
            "dgc_params.json",
            "dgc_history.csv",
            "predictions.csv",
            "metrics_run.json",
            "attraction.csv",
            "attraction_hist.csv",
            "population.dot",
            "population.graphml",
        ):
            assert (run_dir / name).exists(), name
        lines = (run_dir / "predictions.csv").read_text().splitlines()
        assert lines[0] == "patient_id,split,label,prob_class0,prob_class1,predicted"
        for line in lines[1:]:
            cells = line.split(",")
            p0, p1 = float(cells[3]), float(cells[4])  # plain decimal floats
            assert abs(p0 + p1 - 1.0) < 1e-9
            assert cells[5] in ("0", "1")
        effective = load_config(run_dir / "effective_config.json")
        assert effective.seeds == (0,)

    def test_snapshot_roundtrip(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        cohort = stage_data(cfg, 0)
        loaded = load_snapshot(tmp_path / "run" / "seed_0")
        assert [p.id for p in loaded.patients] == [p.id for p in cohort.patients]
        assert [p.split for p in loaded.patients] == [p.split for p in cohort.patients]
        for a, b in zip(loaded.patients, cohort.patients):
            assert np.array_equal(a.series.values, b.series.values)

    def test_missing_checkpoint_names_path(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        stage_data(cfg, 0)
        with pytest.raises(FileNotFoundError, match="cgl_params.json"):
            stage_train_dgc(cfg, 0)

    def test_evaluate_is_byte_deterministic(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        stage_data(cfg, 0)
        stage_train_cgl(cfg, 0)
        stage_train_dgc(cfg, 0)
        stage_evaluate(cfg, 0)
        metrics_path = tmp_path / "run" / "seed_0" / "metrics_run.json"
        first = metrics_path.read_bytes()
        stage_evaluate(cfg, 0)
        assert metrics_path.read_bytes() == first

    def test_pipeline_aggregates_runs(self, tmp_path):
        doc = tiny_config_dict(tmp_path / "run")
        doc["seeds"] = [0, 1]
        cfg = config_from_dict(doc)
        aggregated = run_pipeline(cfg)
        assert aggregated["n_runs"] == 2
        assert [r["seed"] for r in aggregated["runs"]] == [0, 1]
        assert "auc" in aggregated["mean"] and "auc" in aggregated["std"]
        assert all("counts" in r for r in aggregated["runs"])
        on_disk = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert on_disk == aggregated

    def test_pipeline_on_manifest_data(self, tmp_path):
        # write a 12-patient cohort to CSVs, then run every stage from the manifest
        from ccgl.cohort import SynthSpec, synth_cohort

        cohort = synth_cohort(SynthSpec(n_patients=12, n_rois=8, n_timepoints=160, n_sites=1), 6)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        entries = []
        for p in cohort.patients:
            csv_path = data_dir / f"{p.id}.csv"
            csv_path.write_text(
                "\n".join(",".join(repr(float(v)) for v in row) for row in p.series.values) + "\n"
            )
            entries.append(
                {
                    "id": p.id,
                    "csv": csv_path.name,
                    "pcd": p.pcd.tolist(),
                    "label": p.label,
                    "site": p.site,
                }
            )
        manifest = data_dir / "manifest.json"
        manifest.write_text(json.dumps({"roi_count": 8, "patients": entries}))

        doc = tiny_config_dict(tmp_path / "run")
        doc["data"] = {"manifest": str(manifest)}
        aggregated = run_pipeline(config_from_dict(doc))
        assert aggregated["n_runs"] == 1
        assert 0.0 <= aggregated["runs"][0]["auc"] <= 1.0
        assert (tmp_path / "run" / "seed_0" / "population.graphml").exists()


@pytest.fixture()
def trained_run(tmp_path):
    """A tiny run through train-dgc: (config, seed directory)."""
    cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
    stage_data(cfg, 0)
    stage_train_cgl(cfg, 0)
    stage_train_dgc(cfg, 0)
    return cfg, tmp_path / "run" / "seed_0"


LATER_STAGES = (stage_train_dgc, stage_evaluate, stage_export)


class TestEmbeddingsArtifact:
    def test_equals_a_fresh_embedding_of_the_checkpoint(self, trained_run):
        cfg, run_dir = trained_run
        fresh = encoder.embed_cohort(load_snapshot(run_dir), load_checkpoint(run_dir / "cgl_params.json"), cfg)
        with np.load(run_dir / "embeddings.npz") as archive:
            stored = archive["embeddings"]
        assert stored.dtype == np.float64 and stored.shape == (10, cfg.n_views, 6)
        assert np.array_equal(stored, np.asarray(fresh, dtype=np.float64))

    def test_train_cgl_builds_each_view_graph_once(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        cohort = stage_data(cfg, 0)
        built = []
        real = encoder.build_fc_graph
        monkeypatch.setattr(encoder, "build_fc_graph", lambda *args, **kwargs: built.append(1) or real(*args, **kwargs))
        stage_train_cgl(cfg, 0)
        assert len(built) == len(cohort.patients) * cfg.n_views

    def test_later_stages_refuse_embeddings_of_another_checkpoint(self, trained_run):
        cfg, run_dir = trained_run
        params = load_checkpoint(run_dir / "cgl_params.json")
        params.values["readout"] = params.values["readout"] * 0.5
        save_checkpoint(params, run_dir / "cgl_params.json")
        for stage in LATER_STAGES:
            with pytest.raises(ValueError, match="embeddings.npz.*re-run train-cgl"):
                stage(cfg, 0)

    def test_later_stages_refuse_a_patient_count_mismatch(self, trained_run):
        cfg, run_dir = trained_run
        with np.load(run_dir / "embeddings.npz") as archive:
            arrays = dict(archive)
        with open(run_dir / "embeddings.npz", "wb") as fh:
            np.savez(fh, embeddings=arrays["embeddings"][:-1], cgl_params_sha256=arrays["cgl_params_sha256"])
        for stage in LATER_STAGES:
            with pytest.raises(ValueError, match="embeddings.npz holds 9 patients.*re-run train-cgl"):
                stage(cfg, 0)

    def test_missing_embeddings_names_the_file(self, trained_run):
        cfg, run_dir = trained_run
        (run_dir / "embeddings.npz").unlink()
        for stage in LATER_STAGES:
            with pytest.raises(FileNotFoundError, match="embeddings.npz"):
                stage(cfg, 0)

    def test_later_stages_do_not_reembed(self, trained_run, monkeypatch):
        cfg, run_dir = trained_run

        def refuse(*args, **kwargs):
            raise AssertionError("the cohort was embedded again")

        monkeypatch.setattr(encoder, "embed_cohort", refuse)
        monkeypatch.setattr(pipeline, "embed_cohort", refuse)
        for stage in LATER_STAGES:
            stage(cfg, 0)
        assert (run_dir / "population.graphml").exists()


class TestCli:
    def test_synth_command(self, tiny_config_path, capsys):
        assert main(["synth", "--config", str(tiny_config_path)]) == 0
        assert "cohort of 10 patients" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = tiny_config_dict(tmp_path)
        doc["encoder"]["pool_ratio"] = 0.0
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 1
        assert "encoder.pool_ratio" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 1

    def test_synth_command_requires_synth_block(self, tmp_path, capsys):
        doc = tiny_config_dict(tmp_path)
        doc["data"] = {"manifest": "whatever.json"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 1

    def test_stage_failure_exits_two(self, tiny_config_path, capsys):
        # train-dgc before any other stage: missing snapshot
        assert main(["train-dgc", "--config", str(tiny_config_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_ingest_command(self, manifest_dir, tmp_path, capsys):
        doc = tiny_config_dict(tmp_path / "run")
        doc["data"] = {"manifest": str(manifest_dir / "manifest.json")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["ingest", "--config", str(path)]) == 0
        assert "cohort of 2 patients" in capsys.readouterr().out

    def test_full_chain_via_cli(self, tiny_config_path, capsys):
        for command in ("synth", "train-cgl", "train-dgc", "evaluate", "export-graph"):
            assert main([command, "--config", str(tiny_config_path)]) == 0, command
        out = capsys.readouterr().out
        assert "auc" in out and "population.graphml" in out

    def test_seed_and_out_overrides(self, tiny_config_path, tmp_path):
        out = tmp_path / "elsewhere"
        assert main(["synth", "--config", str(tiny_config_path), "--seed", "7", "--out", str(out)]) == 0
        assert (out / "seed_7" / "cohort.json").exists()

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command", "--config", "x.json"])
        assert exc.value.code == 1
