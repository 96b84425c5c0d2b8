import json

import pytest

from qcaloric import cli
from qcaloric.cli import cli_main


@pytest.fixture
def scenario_file(tmp_path):
    def make(**overrides):
        obj = {
            "model": {"kind": "dimer", "J": 1.0, "b": 0.0},
            "parameter": "J",
            "sweep": {"from": 0.5, "to": 1.5, "points": 3},
            "temperatures": {"from": 0.5, "to": 2.0, "points": 3},
            "computations": ["entropy"],
            "output": {"csv": str(tmp_path / "out.csv")},
        }
        obj.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        return path
    return make


class TestScenarioCommands:
    def test_entropy_sweep(self, tmp_path, scenario_file):
        path = scenario_file()
        assert cli_main(["entropy-sweep", "--scenario", str(path)]) == 0
        text = (tmp_path / "out.csv").read_text()
        assert text.startswith("abscissa_K,value_kB,error_estimate\n")
        assert len(text.splitlines()) == 4   # header + 3 temperatures

    def test_adiabatic_sweep_with_svg(self, tmp_path, scenario_file):
        path = scenario_file(output={"csv": str(tmp_path / "out.csv"),
                                     "svg": str(tmp_path / "out.svg")})
        assert cli_main(["adiabatic-sweep", "--scenario", str(path)]) == 0
        assert (tmp_path / "out.svg").read_text().count("<polyline") == 1

    def test_force(self, tmp_path, scenario_file):
        path = scenario_file()
        assert cli_main(["force", "--scenario", str(path)]) == 0
        written = sorted(p.name for p in tmp_path.glob("out__*.csv"))
        assert written == ["out__force_T_0.5.csv", "out__force_T_1.25.csv",
                           "out__force_T_2.csv"]

    def test_decompose(self, tmp_path, scenario_file):
        path = scenario_file()
        assert cli_main(["decompose", "--scenario", str(path)]) == 0
        assert (tmp_path / "out__work.csv").exists()
        assert (tmp_path / "out__heat.csv").exists()
        assert (tmp_path / "out__energy_change.csv").exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli_main(["entropy-sweep", "--scenario",
                         str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["entropy-sweep", "--scenario", str(bad)]) == 2

    def test_validation_failure_is_usage_error(self, tmp_path, scenario_file):
        path = scenario_file(temperatures={"from": 0.0, "to": 1.0, "points": 2})
        assert cli_main(["entropy-sweep", "--scenario", str(path)]) == 2

    def test_computation_error_exit_code(self, tmp_path, scenario_file, capsys):
        # flat tabulated spectrum: the adiabat equation is singular
        path = scenario_file(
            model={"kind": "tabulated",
                   "lambda_grid": [0.0, 1.0, 2.0],
                   "energies": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]},
            sweep={"from": 0.2, "to": 1.8, "points": 2})
        obj = json.loads(path.read_text())
        del obj["parameter"]
        path.write_text(json.dumps(obj))
        assert cli_main(["adiabatic-sweep", "--scenario", str(path)]) == 3
        assert "computation error" in capsys.readouterr().err


class TestDiscordCommand:
    def test_reference_value_printed(self, capsys):
        code = cli_main(["discord", "--J", "1", "--T-from", "1",
                         "--T-to", "1", "--points", "1"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "T_K,discord"
        assert out[1].split(",")[1].startswith("4.652766625")

    def test_grid_output(self, capsys):
        code = cli_main(["discord", "--J", "0.5", "--T-from", "0.5",
                         "--T-to", "2.0", "--points", "4"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_bad_points(self, capsys):
        assert cli_main(["discord", "--J", "1", "--T-from", "1",
                         "--T-to", "1", "--points", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--J", "nan"), ("--J", "inf"), ("--T-from", "nan"), ("--T-from", "inf"),
        ("--T-to", "inf"), ("--T-to", "nan")])
    def test_non_finite_numbers_are_usage_errors(self, capsys, flag, value):
        numbers = {"--J": "1", "--T-from": "1", "--T-to": "2"}
        numbers[flag] = value
        argv = ["discord", "--points", "3"]
        for pair in numbers.items():
            argv.extend(pair)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qcaloric: error: {flag}: must be finite\n"


class TestIngestCommand:
    def test_table_driven_sweep(self, tmp_path, scenario_file):
        table = tmp_path / "table.csv"
        table.write_text("pressure_gpa,J_kelvin\n0.0,0.5\n2.0,1.0\n4.9,1.5\n")
        path = scenario_file(computations=["entropy", "discord"])
        assert cli_main(["ingest", "--exchange-table", str(table),
                         "--scenario", str(path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("out__*.csv"))
        assert names == [
            "out__discord_P_0GPa_J_0.5.csv",
            "out__discord_P_2GPa_J_1.csv",
            "out__discord_P_4.9GPa_J_1.5.csv",
            "out__entropy_change.csv",
        ]

    def test_requires_dimer_exchange_scenario(self, tmp_path, scenario_file):
        table = tmp_path / "table.csv"
        table.write_text("pressure_gpa,J_kelvin\n0.0,0.5\n2.0,1.0\n")
        path = scenario_file(model={"kind": "single_spin", "b": 1.0},
                             parameter="b")
        assert cli_main(["ingest", "--exchange-table", str(table),
                         "--scenario", str(path)]) == 2

    def test_bad_table_header(self, tmp_path, scenario_file):
        table = tmp_path / "table.csv"
        table.write_text("p,J\n0.0,0.5\n")
        path = scenario_file()
        assert cli_main(["ingest", "--exchange-table", str(table),
                         "--scenario", str(path)]) == 2


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert cli_main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 26


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2


class TestParserReuse:
    def test_later_calls_behave_like_first_calls(self, tmp_path, scenario_file, capsys):
        # one parser serves every call of a process; each call gets a fresh
        # namespace, so a usage error after a run reads as it does alone
        path = scenario_file(computations=["decompose"])
        calls = (["decompose", "--scenario", str(path)], ["decompose"],
                 ["decompose", "--scenario", str(tmp_path / "nope.json")], ["frobnicate"])

        def run(argv):
            code = cli_main(argv)
            captured = capsys.readouterr()
            return code, captured.err

        first = []
        for argv in calls:
            cli._build_parser.cache_clear()
            first.append(run(argv))
        cli._build_parser.cache_clear()
        assert [run(argv) for argv in calls] == first
        assert [code for code, _ in first] == [0, 2, 2, 2]
        assert first[0][1] == "" and "--scenario" in first[1][1]
        assert cli._build_parser() is cli._build_parser()
