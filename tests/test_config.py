import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decentsim.bound import WalkParams
from decentsim.config import WALK_KEYS, echo_values, parse_config
from decentsim.errors import ConfigError
from decentsim.metrics import load_producer_csv

# a simulate run without its seeds
SIMULATE = dict(model="gamma", br=3.0, r_max=3.0, horizon=5, n_nodes=2,
                init="explicit", init_powers="4,1")
# a check run without its owners
CHECK = dict(model="pow", br=1, powers="1,1", m=1)
# the least positive int that a float cannot hold
BIG = 2**53 + 1

# checked-in run configs, one directory per subcommand
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*/*.json"))
# files json.loads refuses with other errors than JSONDecodeError: nesting
# past the recursion limit, an int over 4300 digits, bytes that are not UTF-8
UNREADABLE_CONFIGS = {"deep": b"[" * 100_000, "long-int": b"1" * 5000, "not-utf8": b"\xff"}


class TestBoundSchema:
    def test_defaults_fill_in(self):
        cfg = parse_config(
            "bound", overrides={"f": 1e-4, "rho": 0.1, "epsilon": 0, "samples": 1e7}
        )
        assert cfg["u"] == 1e-3
        assert cfg["k_max"] == 100
        assert cfg["samples"] == 10_000_000
        assert cfg["strategy"] == "micro"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="gamm"):
            parse_config("bound", overrides={"f": 1e-4, "rho": 0.1, "gamm": 3})

    def test_missing_required_named(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("bound", overrides={"f": 1e-4})

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="samples"):
            parse_config("bound", overrides={"f": 1e-4, "rho": 0.1, "samples": "many"})
        with pytest.raises(ConfigError, match="samples"):
            parse_config("bound", overrides={"f": 1e-4, "rho": 0.1, "samples": 10.5})
        with pytest.raises(ConfigError, match="samples"):
            parse_config("bound", overrides={"f": 1e-4, "rho": 0.1, "samples": True})

    def test_walk_keys_are_the_walk_params_fields(self):
        # _walk_params passes WALK_KEYS to WalkParams by name
        fields = {field.name for field in dataclasses.fields(WalkParams)}
        assert fields == {"f", "rho", "epsilon"} | {key.name for key in WALK_KEYS}

    def test_bad_choice_named(self):
        with pytest.raises(ConfigError, match="strategy"):
            parse_config("bound", overrides={"f": 1e-4, "rho": 0.1, "strategy": "warp"})


class TestFileHandling:
    def test_file_plus_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"f": 1e-4, "rho": 0.1, "samples": 1000}))
        cfg = parse_config("bound", file=path, overrides={"samples": 2000})
        assert cfg["samples"] == 2000
        assert cfg["f"] == 1e-4

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"f": 1e-4, "rho": 0.1, "gamm": 3}))
        with pytest.raises(ConfigError, match="gamm"):
            parse_config("bound", file=path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config("bound", file=tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        for name, body in {"syntax": b"{not json", **UNREADABLE_CONFIGS}.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(body)
            with pytest.raises(ConfigError, match=f"config file {re.escape(str(path))} is not valid JSON"):
                parse_config("bound", file=path)

    @pytest.mark.parametrize("name", UNREADABLE_CONFIGS)
    def test_invalid_json_exit_code(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE_CONFIGS[name])
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "anchors", "--config", str(path)],
            env=dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"ConfigError: config file {path} is not valid JSON"), done.stderr
        assert "Traceback" not in done.stderr

    def test_byte_order_mark(self, tmp_path):
        # editors on some systems save UTF-8 with a BOM
        body = json.dumps({"f": 1e-4, "rho": 0.1, "samples": 1000})
        plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(body, encoding="utf-8")
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config("bound", file=marked) == parse_config("bound", file=plain)
        (tmp_path / "anchors.json").write_bytes(b"\xef\xbb\xbf{}")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "decentsim.cli", "anchors",
             "--config", str(tmp_path / "anchors.json")],
            env=dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestListKeys:
    def test_comma_string(self):
        cfg = parse_config(
            "sweep",
            overrides={"f_grid": "1e-4,1e-3", "epsilon_grid": "0", "rho_grid": "0.1"},
        )
        assert cfg["f_grid"] == (1e-4, 1e-3)
        assert cfg["epsilon_grid"] == (0.0,)

    def test_json_list(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"f_grid": [1e-4], "epsilon_grid": [0, 9], "rho_grid": [0.1]}))
        cfg = parse_config("sweep", file=path)
        assert cfg["epsilon_grid"] == (0.0, 9.0)

    def test_seeds_ints(self):
        cfg = parse_config(
            "simulate",
            overrides=dict(
                model="gamma", br=3.0, r_max=3.0, horizon=5, n_nodes=2,
                init="explicit", init_powers="4,1", seeds="0,1,2",
            ),
        )
        assert cfg["seeds"] == (0, 1, 2)

    def test_items_follow_their_scalar_rule(self):
        # "2.0" is an int key's 2, so a list item "1.0" is the seed 1
        cfg = parse_config("simulate", overrides={**SIMULATE, "seeds": "1.0,2"})
        assert cfg["seeds"] == (1, 2)

    @pytest.mark.parametrize(
        "subcommand, key, value",
        [("simulate", "seeds", [0.5, 1.7]), ("simulate", "seeds", [True, 2]),
         ("simulate", "init_powers", [True, 2]), ("simulate", "init_powers", "1,,2"),
         ("simulate", "init_powers", "1,2,"), ("check", "owners", "a,,b"),
         ("check", "owners", ["a", ""])],
        ids=["fractional-seeds", "bool-seed", "bool-power", "empty-power", "trailing-comma",
             "empty-owner", "empty-owner-json"],
    )
    def test_bad_items_named(self, subcommand, key, value):
        # the message shows the value as given, not its split items
        base = {"simulate": SIMULATE, "check": CHECK}[subcommand]
        with pytest.raises(ConfigError, match=f"config key '{key}' expects .*, got {re.escape(repr(value))}$"):
            parse_config(subcommand, overrides={**base, key: value})

    @pytest.mark.parametrize(
        "value, owners", [("", ()), (" a , b", ("a", "b")), (["a ", "b"], ("a", "b"))],
        ids=["empty", "spaces", "json-list"],
    )
    def test_owners_items_are_stripped(self, value, owners):
        assert parse_config("check", overrides={**CHECK, "owners": value})["owners"] == owners


class TestExactInts:
    @pytest.mark.parametrize("value", [BIG, str(BIG)], ids=["json-int", "digit-string"])
    def test_check_seed(self, value):
        cfg = parse_config("check", overrides={
            "model": "pow", "br": 1, "powers": "1,1", "m": 1, "seed": value,
        })
        assert cfg["seed"] == BIG

    def test_horizon(self):
        assert parse_config("simulate", overrides={**SIMULATE, "horizon": BIG})["horizon"] == BIG

    def test_seeds_item(self):
        assert parse_config("simulate", overrides={**SIMULATE, "seeds": [BIG]})["seeds"] == (BIG,)


class TestEcho:
    def test_echo_is_json_safe_and_sorted(self):
        cfg = parse_config("bound", overrides={"f": 1e-4, "rho": 0.1})
        echoed = echo_values(cfg)
        json.dumps(echoed)
        assert list(echoed) == sorted(echoed)

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            parse_config("teleport")


class TestCheckedInConfigs:
    def test_configs_exist(self):
        assert {path.parent.name for path in CONFIGS} == {
            "bound", "sweep", "check", "simulate", "metrics"
        }

    def test_metrics_input_is_relative_to_the_repository_root(self, monkeypatch):
        monkeypatch.chdir(CONFIG_DIR.parent)
        cfg = parse_config("metrics", file=CONFIG_DIR / "metrics/producers.json")
        assert not Path(cfg["input"]).is_absolute()
        assert load_producer_csv(cfg["input"]).total_blocks() > 0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_trichotomy_configs_differ_only_in_gamma(self, gamma):
        # one desk setup, swept over the lottery exponent: each config is the
        # gamma = 1 config that run_trichotomy.py reads, at its own exponent
        path = CONFIG_DIR / f"simulate/trichotomy_gamma_{gamma}.json"
        base = CONFIG_DIR / "simulate/trichotomy_gamma_1.0.json"
        raw, base_raw = (json.loads(p.read_text()) for p in (path, base))
        assert raw.pop("gamma") == gamma
        base_raw.pop("gamma")
        assert raw == base_raw
        assert parse_config("simulate", file=path) == parse_config(
            "simulate", file=base, overrides={"gamma": gamma}
        )

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: f"{path.parent.name}/{path.stem}")
    def test_parses(self, path):
        parse_config(path.parent.name, file=path)
