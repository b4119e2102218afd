"""README's examples and numbers are checked against the code and the checked-in
experiment reports, so that they cannot drift."""
import importlib
import json
import re
import shutil
from pathlib import Path

import pytest

from slidereg.registration import RegistrationConfig, config_from_dict

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
REPORTS = ROOT / "experiments" / "reports"
MODULES = ("bench", "cli", "errors", "fileio", "flow", "geometry", "kernels", "momenta", "registration")


def section(text: str, title: str) -> str:
    """The body of the heading ``title`` (any level) up to the next heading outside a code fence."""
    lines, body, inside, fenced = text.splitlines(), [], False, False
    for line in lines:
        if line.startswith("```"):
            fenced = not fenced
        if line.startswith("#") and not fenced:
            if inside:
                break
            inside = line.lstrip("#").strip() == title
            continue
        if inside:
            body.append(line)
    assert body, f"README has no section {title!r}"
    return "\n".join(body)


def json_blocks(text: str) -> list[str]:
    return re.findall(r"```json\n(.*?)```", text, re.DOTALL)


def load_reports(directory: Path) -> dict:
    return {p.stem: json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))}


class _Printed(str):
    """A number as README prints it."""


def _matches(printed: str, value) -> bool:
    """Whether ``value`` printed at ``printed``'s precision reads ``printed``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if "." in printed:
        return isinstance(value, float) and f"{value:.{len(printed.split('.')[1])}f}" == printed
    return isinstance(value, int) and str(value) == printed


def _example_mismatches(example, report, path: str) -> tuple[int, list[str]]:
    """The numbers checked and the mismatches of ``example``, parsed with its numbers
    as :class:`_Printed`, as a part of ``report``; any other value, a list of method
    names included, must equal the report's."""
    if isinstance(example, dict):
        if not isinstance(report, dict):
            return 0, [f"{path}: report holds {report!r}"]
        count, bad = 0, []
        for key, value in example.items():
            if key not in report:
                bad.append(f"{path}.{key}: not in the report")
                continue
            c, b = _example_mismatches(value, report[key], f"{path}.{key}")
            count, bad = count + c, bad + b
        return count, bad
    if isinstance(example, _Printed):
        return 1, [] if _matches(example, report) else [f"{path}: README {example}, report {report!r}"]
    same = type(example) is type(report) and example == report
    return 0, [] if same else [f"{path}: README {example!r}, report {report!r}"]


def _table_mismatches(text: str, reports: dict) -> tuple[int, list[str]]:
    """The numbers checked and the mismatches of the results table, whose rows are
    experiment, method and one cell per backticked run key; ``—`` is a key the run lacks."""
    rows = [line for line in text.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header[:2] == ["Experiment", "Method"], header
    keys = [cell.strip("`") for cell in header[2:]]
    count, bad = 0, []
    for row in rows[2:]:
        experiment, method, *cells = [cell.strip() for cell in row.strip("|").split("|")]
        run = reports[experiment]["runs"][method]
        for key, cell in zip(keys, cells, strict=True):
            where = f"{experiment}.runs.{method}.{key}"
            if cell == "—":
                if key in run:
                    bad.append(f"{where}: README —, report {run[key]!r}")
                continue
            count += 1
            if not _matches(cell, run.get(key)):
                bad.append(f"{where}: README {cell}, report {run.get(key)!r}")
    return count, bad


def readme_mismatches(readme: str, reports: dict) -> tuple[int, list[str]]:
    """The measured numbers README quotes, counted, and each that its report does not hold:
    the report example of *Experiment file* against the rectangle report, and the results
    table of *Experiments* against both."""
    example = json.loads(json_blocks(section(readme, "Experiment file (run)"))[1],
                         parse_float=_Printed, parse_int=_Printed)
    c1, b1 = _example_mismatches(example, reports[example["name"]], example["name"])
    c2, b2 = _table_mismatches(section(readme, "Experiments"), reports)
    return c1 + c2, b1 + b2


def test_quoted_numbers_are_read_from_the_reports():
    count, bad = readme_mismatches(README, load_reports(REPORTS))
    assert bad == []
    assert count == 34  # 13 in the report example, 21 in the table


@pytest.mark.parametrize(
    "experiment, method, key",
    [("rectangle", "wendland_both", "ssd_final"),  # quoted twice
     ("wheel", "gaussian", "forward_passes"),  # quoted in the table alone
     ("rectangle", "wendland_both", "magnitude_scale")],  # quoted in the example alone
)
def test_check_fails_when_a_report_moves_and_readme_does_not(tmp_path, experiment, method, key):
    copy = tmp_path / "reports"
    shutil.copytree(REPORTS, copy)
    path = copy / f"{experiment}.json"
    report = json.loads(path.read_text())
    report["runs"][method][key] += 1
    path.write_text(json.dumps(report, indent=2) + "\n")
    bad = readme_mismatches(README, load_reports(copy))[1]
    assert bad and all(f"{experiment}.runs.{method}.{key}:" in line for line in bad)


@pytest.mark.parametrize("path", sorted((ROOT / "experiments").glob("*.json")), ids=lambda p: p.stem)
def test_each_experiment_has_its_report(path):
    doc = json.loads(path.read_text())
    report = json.loads((REPORTS / path.name).read_text())
    assert report["name"] == doc["name"] and report["methods"] == list(report["runs"]) == doc["methods"]


def test_config_example_parses():
    block = json_blocks(section(README, "Config file (register)"))[0]
    assert isinstance(config_from_dict(json.loads(block)), RegistrationConfig)


def test_experiment_example_is_the_rectangle_file():
    block = json_blocks(section(README, "Experiment file (run)"))[0]
    assert json.loads(block) == json.loads((ROOT / "experiments" / "rectangle.json").read_text())


def test_backticked_module_names_resolve():
    refs = sorted(set(re.findall(rf"`(?:slidereg\.)?((?:{'|'.join(MODULES)})\.[A-Za-z_][\w.]*)", README)))
    assert len(refs) >= 5, refs
    missing = []
    for ref in refs:
        module, *attrs = ref.split(".")
        obj = importlib.import_module(f"slidereg.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(ref)
                break
            obj = getattr(obj, attr)
    assert missing == []
